#pragma once

/// \file driver.hpp
/// Problem drivers: everything the examples and benchmark harnesses share.
///
/// A driver run has two halves, mirroring how an application would embed
/// HYMV:
///   1. rank-shared setup (ProblemSetup::build) — generate the mesh,
///      partition it, compute node ownership; this is the "mesh
///      infrastructure" a host code (Gmsh+METIS in the paper) provides;
///   2. per-rank work inside simmpi::run — RankContext builds the element
///      operator, Dirichlet constraints, and right-hand side; measure_spmv
///      and solve_problem drive the five SPMV backends through identical
///      code paths so method comparisons are apples-to-apples.
///
/// The two verification problems of paper §V-B (manufactured Poisson,
/// Timoshenko elastic bar) are built in: each ProblemSpec knows its exact
/// solution, so every run can report ‖u − u_exact‖∞.

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "hymv/core/adaptive_operator.hpp"
#include "hymv/core/assembly.hpp"
#include "hymv/core/gpu_operator.hpp"
#include "hymv/core/hymv_operator.hpp"
#include "hymv/core/matrix_free_operator.hpp"
#include "hymv/fem/analytic.hpp"
#include "hymv/fem/operators.hpp"
#include "hymv/mesh/partition.hpp"
#include "hymv/mesh/structured.hpp"
#include "hymv/mesh/tet.hpp"
#include "hymv/pla/cg.hpp"
#include "hymv/pla/chebyshev.hpp"
#include "hymv/pla/constraints.hpp"
#include "hymv/pla/multigrid.hpp"

namespace hymv::driver {

/// PDE of the experiment.
enum class Pde : int { kPoisson, kElasticity };

/// SPMV backend under test.
enum class Backend : int {
  kAssembled,     ///< matrix-assembled baseline (PETSc MatAIJ equivalent)
  kHymv,          ///< the paper's contribution
  kMatrixFree,    ///< Algorithm 4 baseline
  kHymvGpu,       ///< Algorithm 3 on the simulated device
  kAssembledGpu,  ///< PETSc-GPU (cuSPARSE) equivalent
  kAdaptive,      ///< per-region autotuned composite (stored/matrixfree/SELL)
};

/// Preconditioner for solve_problem. Values append only — svc problem keys
/// and golden traces hash the underlying int.
enum class Precond : int {
  kNone,            ///< identity
  kJacobi,          ///< point diagonal scaling
  kBlockJacobi,     ///< one ILU(0) block per rank
  kNodeBlockJacobi, ///< exact ndof×ndof node-block inverses
  kChebyshev,       ///< Chebyshev polynomial over D⁻¹A (matrix-free)
  kMultigrid,       ///< geometric V-cycle (structured hex meshes only)
};

[[nodiscard]] const char* backend_name(Backend backend);

[[nodiscard]] const char* precond_name(Precond precond);

/// Full description of one experiment's problem.
struct ProblemSpec {
  Pde pde = Pde::kPoisson;
  mesh::ElementType element = mesh::ElementType::kHex8;
  mesh::BoxSpec box{};               ///< domain + resolution
  bool unstructured = false;         ///< tet mesh via jittered subdivision
  double jitter = 0.25;              ///< unstructured node jitter
  std::uint64_t seed = 77;           ///< mesh RNG seed
  mesh::Partitioner partitioner = mesh::Partitioner::kSlab;

  // Elasticity material / bar parameters (paper §V-B).
  double young = 1000.0;
  double poisson_ratio = 0.3;
  double density = 1.0;
  double gravity = 9.8;

  [[nodiscard]] int ndof_per_node() const {
    return pde == Pde::kPoisson ? 1 : 3;
  }
};

/// Rank-shared problem data; build once, outside simmpi::run.
struct ProblemSetup {
  ProblemSpec spec;
  int nranks = 1;
  std::int64_t total_nodes = 0;
  std::int64_t total_elements = 0;
  mesh::DistributedMesh dist;

  [[nodiscard]] std::int64_t total_dofs() const {
    return total_nodes * spec.ndof_per_node();
  }
  [[nodiscard]] const mesh::MeshPartition& part(int rank) const {
    return dist.parts[static_cast<std::size_t>(rank)];
  }

  static ProblemSetup build(const ProblemSpec& spec, int nranks);
};

/// Per-rank problem context: element operator + BCs + maps. Collective
/// construction (inside simmpi::run).
class RankContext {
 public:
  RankContext(simmpi::Comm& comm, const ProblemSetup& setup);

  [[nodiscard]] const ProblemSetup& setup() const { return *setup_; }
  [[nodiscard]] const mesh::MeshPartition& part() const { return *part_; }
  [[nodiscard]] const fem::ElementOperator& element_op() const { return *op_; }
  [[nodiscard]] core::DofMaps& maps() { return maps_; }
  [[nodiscard]] const pla::DirichletConstraints& constraints() const {
    return constraints_;
  }

  /// Exact solution at owned local dof i (analytic field of the spec).
  [[nodiscard]] double exact_dof(std::int64_t local_dof) const;

  /// exact_dof at every owned DoF, for callers that check many solutions
  /// against one field (the solve service's pooled rank states).
  [[nodiscard]] std::vector<double> exact_owned() const;

  /// Assembled load vector (body force / manufactured forcing).
  pla::DistVector assemble_rhs(simmpi::Comm& comm);

  /// ‖u − u_exact‖∞ over all owned DoFs (collective).
  [[nodiscard]] double error_inf(simmpi::Comm& comm,
                                 const pla::DistVector& u) const;

  /// The same norm against precomputed exact_owned() values: bitwise
  /// equal to error_inf(comm, u), without evaluating the field.
  [[nodiscard]] static double error_inf(simmpi::Comm& comm,
                                        const pla::DistVector& u,
                                        std::span<const double> exact);

 private:
  const ProblemSetup* setup_;
  const mesh::MeshPartition* part_;
  std::unique_ptr<fem::ElementOperator> op_;
  fem::ElasticBar bar_;
  core::DofMaps maps_;
  pla::DirichletConstraints constraints_;
};

/// Build one of the SPMV backends over a rank context: build_backend's
/// operator alone. GPU backends require `device`.
std::unique_ptr<pla::LinearOperator> make_backend(
    simmpi::Comm& comm, const RankContext& ctx, Backend backend,
    gpu::Device* device = nullptr,
    const core::HymvGpuOptions& gpu_options = {},
    const core::HymvOptions& hymv_options = {},
    const core::AdaptiveOptions& adaptive_options = {});

// ---------------------------------------------------------------------------
// SPMV measurement (Fig. 4-10, Table I)
// ---------------------------------------------------------------------------

/// Per-rank setup-phase breakdown, in the paper's vocabulary.
struct SetupReport {
  double emat_compute_s = 0.0;  ///< element-matrix computation
  double assembly_s = 0.0;      ///< global assembly (assembled backend)
  double local_copy_s = 0.0;    ///< HYMV store copy
  double maps_s = 0.0;          ///< HYMV map construction
  double gpu_upload_virtual_s = 0.0;  ///< device residency upload
  std::int64_t comm_bytes = 0;        ///< setup communication (this rank)
  std::int64_t comm_messages = 0;

  [[nodiscard]] double total_s() const {
    return emat_compute_s + assembly_s + local_copy_s + maps_s +
           gpu_upload_virtual_s;
  }
};

/// One constructed backend plus everything the harnesses need alongside the
/// type-erased operator: the setup-phase breakdown and non-owning typed
/// views for backend-specific hooks (phase metrics, checksums, GPU timing).
/// build_backend is the single construction path — make_backend,
/// measure_spmv, and solve_problem all go through it.
struct BuiltBackend {
  std::unique_ptr<pla::LinearOperator> op;
  SetupReport setup;
  core::HymvOperator* hymv_cpu = nullptr;
  core::AdaptiveOperator* adaptive = nullptr;
  core::HymvGpuOperator* hymv_gpu = nullptr;
  core::GpuCsrOperator* csr_gpu = nullptr;
};

/// Build `backend` over a rank context with the paper's setup-phase
/// breakdown, running exactly the options it is given (it reads no
/// environment; edge code resolves them with env_options.hpp). kHymv and
/// kMatrixFree run `hymv_options`, kHymvGpu runs `gpu_options` (its host
/// operator `gpu_options.host`) and requires `device`, and kAdaptive runs
/// `adaptive_options` over `hymv_options` (its `hymv` field is replaced).
/// Collective.
///
/// Thread-safety: safe to call concurrently from distinct simmpi jobs that
/// share one immutable ProblemSetup (each job holds its own RankContext) —
/// construction only reads the setup and its arguments, runtime ISA
/// dispatch resolves through thread-safe function-local statics, and all
/// mutable state is confined to the calling job's simmpi context and the
/// returned BuiltBackend. svc::SolveService workers rely on this for
/// concurrent cold builds; test_service pins it under TSan.
BuiltBackend build_backend(simmpi::Comm& comm, const RankContext& ctx,
                           Backend backend, gpu::Device* device = nullptr,
                           const core::HymvGpuOptions& gpu_options = {},
                           const core::HymvOptions& hymv_options = {},
                           const core::AdaptiveOptions& adaptive_options = {});

/// Build the preconditioner `precond` over the (constrained) operator `a`.
/// The single construction path solve_problem and svc::SolveService share;
/// it reads no environment. kChebyshev runs `chebyshev` and kMultigrid
/// `multigrid`, each with its fp32 field set to `fp32` (fp32
/// preconditioner state with fp64 accumulation: Chebyshev scaling,
/// multigrid level matrices). kMultigrid assembles the structured-lattice
/// hierarchy from the rank context's ProblemSetup (unstructured meshes warn
/// to stderr and fall back to Jacobi). Collective.
std::unique_ptr<pla::Preconditioner> make_preconditioner(
    simmpi::Comm& comm, const RankContext& ctx, pla::LinearOperator& a,
    Precond precond, bool fp32 = false,
    const pla::ChebyshevOptions& chebyshev = {},
    const pla::MultigridOptions& multigrid = {});

/// Per-rank SPMV measurement over `napplies` products.
struct SpmvReport {
  SetupReport setup;
  int napplies = 0;
  /// Panel width the applies ran at (k simultaneous right-hand sides).
  /// 1 means the classic single-vector path; >1 means apply_multi was
  /// measured and flops/bytes use the k-true panel models.
  int nrhs = 1;
  double spmv_wall_s = 0.0;     ///< wall time of the apply loop (this rank)
  double spmv_cpu_s = 0.0;      ///< thread-CPU seconds (per-rank work)
  double spmv_modeled_s = 0.0;  ///< GPU backends: overlap-aware modeled time
  /// HYMV backend only: per-apply phase breakdown (lnsm/emv/reduce/gngm)
  /// accumulated over the timed rounds after warm-up.
  core::ApplyBreakdown hymv_apply{};
  std::int64_t comm_bytes = 0;
  std::int64_t comm_messages = 0;
  /// Checksummed-exchange retransmissions during the first timed round
  /// (0 unless the job's RunOptions::protection armed the protocol and
  /// faults fired).
  std::int64_t comm_resends = 0;
  /// Element blocks repaired by the post-measurement store scrub (0 unless
  /// HYMV_STORE_CHECKSUM=1 armed store checksums on the HYMV backend).
  std::int64_t scrubbed_blocks = 0;
  std::int64_t flops = 0;       ///< analytic flops over all applies
  std::int64_t bytes = 0;       ///< analytic bytes over all applies
};

/// What measure_spmv runs. It resolves the per-object knobs (HYMV_NRHS,
/// HYMV_STORE_LAYOUT, ..., and HYMV_CPU_* for kAdaptive) onto these once,
/// for every operator it builds.
struct MeasureOptions {
  core::HymvOptions hymv{};
  core::HymvGpuOptions gpu{};
  /// Panel width of the applies: 1 measures apply, k > 1 apply_multi on a
  /// k-lane panel (HYMV_NRHS, validated to [1, 64]).
  int nrhs = 1;
  gpu::Device* device = nullptr;
  /// Timed rounds; the report keeps the fastest round (noise floor on a
  /// shared machine).
  int repeats = 3;
};

/// Build `backend` and run `napplies` SPMVs on a deterministic input,
/// returning this rank's measurements. Collective.
SpmvReport measure_spmv(simmpi::Comm& comm, RankContext& ctx, Backend backend,
                        int napplies, const MeasureOptions& options = {});

// ---------------------------------------------------------------------------
// Total solve (Fig. 11, verification)
// ---------------------------------------------------------------------------

struct SolveOptions {
  Backend backend = Backend::kHymv;
  /// Overridable at solve entry via HYMV_PRECOND (precond_from_env).
  Precond precond = Precond::kJacobi;
  /// fp32 preconditioner state (HYMV_PRECOND_FP32 override). When active,
  /// solve_problem defaults true_residual_every to 50 so the fp64 outer CG
  /// periodically replaces the fp32-polluted recurrence residual with the
  /// true residual (iterative-refinement-style restart).
  bool precond_fp32 = false;
  double rtol = 1e-3;  ///< the paper's solve experiments use ε = 10⁻³
  std::int64_t max_iters = 20000;
  gpu::Device* device = nullptr;
  core::HymvGpuOptions gpu{};

  // --- resilience policy (env overrides: HYMV_CG_TRUE_RESIDUAL_EVERY,
  // HYMV_CG_CHECKPOINT_EVERY, HYMV_SOLVE_ATTEMPTS, HYMV_STORE_CHECKSUM) ---

  std::int64_t true_residual_every = 0;  ///< CgOptions passthrough
  std::int64_t checkpoint_every = 0;     ///< CgOptions passthrough
  int max_rollbacks = 3;                 ///< CgOptions passthrough
  /// Whole-solve retries: a non-converged attempt scrubs the element store
  /// (HYMV backend, when store_checksums is on) and re-enters CG from the
  /// accumulated iterate. Collective — every rank sees the same CgResult.
  int max_solve_attempts = 1;
  /// Arm per-element store checksums on the HYMV backend after setup.
  bool store_checksums = false;
  /// Test hook, called before each attempt with (operator, attempt≥1) —
  /// fault campaigns corrupt backend state between attempts through this.
  std::function<void(pla::LinearOperator&, int)> attempt_hook;
  /// CgOptions::fault_hook passthrough (mid-iteration corruption).
  std::function<void(std::int64_t, pla::DistVector&, pla::DistVector&)>
      cg_fault_hook;
};

struct SolveReport {
  pla::CgResult cg;
  double err_inf = 0.0;       ///< vs the analytic solution
  double setup_s = 0.0;       ///< backend setup (matrix/store build)
  double solve_wall_s = 0.0;  ///< CG wall time (this rank's view)
  double solve_cpu_s = 0.0;   ///< thread-CPU seconds in CG
  double total_modeled_s = 0.0;  ///< setup + solve with GPU time modeled

  // --- recovery visibility -----------------------------------------------
  int attempts = 1;                  ///< solve attempts performed
  std::int64_t scrubbed_blocks = 0;  ///< store blocks repaired across retries
  std::int64_t comm_resends = 0;     ///< checksummed-exchange resends in CG
};

/// Assemble, constrain, precondition, and CG-solve the problem. Collective.
/// The solve's edge: it resolves the operator and preconditioner knobs
/// (env_options.hpp) once, on top of the defaults and `options.gpu.host`,
/// the host roofline for kAdaptive (perf::CpuSpec::from_env), and its own
/// solve knobs. HYMV_CG_PIPELINED=1 selects pipelined CG
/// (CgOptions::pipelined).
SolveReport solve_problem(simmpi::Comm& comm, RankContext& ctx,
                          const SolveOptions& options = {});

}  // namespace hymv::driver
