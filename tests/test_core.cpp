// Tests for the HYMV core: DoF maps (Algorithm 1), the element-matrix
// store, EMV kernels, and — most importantly — the cross-backend SPMV
// equivalence property: HYMV, the assembled CSR matrix, and the matrix-free
// operator must produce identical results on identical meshes for every
// rank count, partitioner, element type, and operator.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <memory>
#include <mutex>
#include <vector>

#include "emv_reference.hpp"
#include "hymv/common/isa.hpp"
#include "hymv/common/rng.hpp"
#include "hymv/core/assembly.hpp"
#include "hymv/core/dense_kernels.hpp"
#include "hymv/core/element_store.hpp"
#include "hymv/core/hymv_operator.hpp"
#include "hymv/core/maps.hpp"
#include "hymv/core/matrix_free_operator.hpp"
#include "hymv/fem/operators.hpp"
#include "hymv/mesh/partition.hpp"
#include "hymv/mesh/structured.hpp"
#include "hymv/mesh/tet.hpp"
#include "hymv/pla/dist_multi_vector.hpp"

namespace {

using namespace hymv;
using core::DofMaps;
using core::HymvOperator;
using core::MatrixFreeOperator;
using mesh::ElementType;
using simmpi::Comm;

// ---------------------------------------------------------------------------
// EMV kernels
// ---------------------------------------------------------------------------

/// The matrix-free kernel, and the stored-matrix sweep at every ISA level,
/// against the row-dot reference.
TEST(EmvKernelTest, AllFlavorsAgree) {
  hymv::Xoshiro256 rng(17);
  for (const std::size_t n : {3u, 8u, 24u, 60u, 81u}) {
    const std::size_t ld = hymv::round_up_to(n, 8);
    hymv::aligned_vector<double> ke(ld * n, 0.0);
    hymv::aligned_vector<double> u(n), v0(n), v1(n), v2(n);
    for (std::size_t c = 0; c < n; ++c) {
      for (std::size_t r = 0; r < n; ++r) {
        ke[c * ld + r] = rng.uniform(-1.0, 1.0);
      }
      u[c] = rng.uniform(-1.0, 1.0);
    }
    reference::emv_rowdot(ke.data(), ld, n, u.data(), v0.data());
    core::emv_simd(ke.data(), ld, n, u.data(), v1.data());
    for (std::size_t r = 0; r < n; ++r) {
      EXPECT_NEAR(v1[r], v0[r], 1e-12) << "simd n=" << n << " r=" << r;
    }
    for (const isa::IsaLevel level :
         {isa::IsaLevel::kScalar, isa::IsaLevel::kAvx2,
          isa::IsaLevel::kAvx512}) {
      const isa::IsaLevel ran = isa::force(level);  // clamped to the CPU
      core::emv_dense(ke.data(), ld, n, u.data(), v2.data());
      for (std::size_t r = 0; r < n; ++r) {
        EXPECT_NEAR(v2[r], v0[r], 1e-12)
            << "sweep level=" << isa::to_string(ran) << " n=" << n
            << " r=" << r;
      }
    }
    isa::reset();
  }
}

TEST(EmvKernelTest, IdentityMatrix) {
  const std::size_t n = 12;
  const std::size_t ld = 16;
  hymv::aligned_vector<double> ke(ld * n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    ke[i * ld + i] = 1.0;
  }
  hymv::aligned_vector<double> u(n), v(n);
  for (std::size_t i = 0; i < n; ++i) {
    u[i] = static_cast<double>(i) - 3.5;
  }
  core::emv_dense(ke.data(), ld, n, u.data(), v.data());
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_DOUBLE_EQ(v[i], u[i]);
  }
}

// ---------------------------------------------------------------------------
// element store
// ---------------------------------------------------------------------------

TEST(ElementStoreTest, PaddedColumnMajorLayout) {
  core::ElementMatrixStore store(3, 5);
  EXPECT_EQ(store.leading_dim(), 8);  // 5 → padded to 8
  EXPECT_EQ(store.stride(), 40);
  std::vector<double> ke(25);
  for (int c = 0; c < 5; ++c) {
    for (int r = 0; r < 5; ++r) {
      ke[static_cast<std::size_t>(c * 5 + r)] = 10.0 * c + r;
    }
  }
  store.set(1, ke);
  EXPECT_DOUBLE_EQ(store.at(1, 3, 4), 43.0);
  // Padding rows stay zero.
  const double* data = store.data(1);
  EXPECT_EQ(data[5], 0.0);
  EXPECT_EQ(data[7], 0.0);
  // Untouched elements are zero.
  EXPECT_EQ(store.at(0, 0, 0), 0.0);
  // Alignment of every element's base pointer.
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(store.data(2)) % 64, 0u);
}

TEST(ElementStoreTest, BytesAccountsPadding) {
  core::ElementMatrixStore store(10, 24);
  EXPECT_EQ(store.bytes(), 10 * 24 * 24 * 8);  // 24 is already a multiple of 8
  core::ElementMatrixStore padded(10, 27);
  EXPECT_EQ(padded.bytes(), 10 * 32 * 27 * 8);
}

// ---------------------------------------------------------------------------
// DofMaps (Algorithm 1)
// ---------------------------------------------------------------------------

TEST(DofMapsTest, SingleRankHasNoGhosts) {
  const mesh::Mesh m = mesh::build_structured_hex({.nx = 2, .ny = 2, .nz = 2},
                                                  ElementType::kHex8);
  const std::vector<int> part_ids(static_cast<std::size_t>(m.num_elements()),
                                  0);
  const auto dist = mesh::distribute_mesh(m, part_ids, 1);
  simmpi::run(1, [&](Comm& comm) {
    DofMaps maps(comm, dist.parts[0], 1);
    EXPECT_EQ(maps.n_pre(), 0);
    EXPECT_EQ(maps.n_post(), 0);
    EXPECT_EQ(maps.n_owned(), m.num_nodes());
    EXPECT_EQ(static_cast<std::int64_t>(maps.independent_elements().size()),
              m.num_elements());
    EXPECT_TRUE(maps.dependent_elements().empty());
  });
}

TEST(DofMapsTest, GhostClassificationSlabPartition) {
  // Slab partition in z: interior ranks see pre-ghosts from below and their
  // dependent elements are the boundary layers.
  const mesh::Mesh m = mesh::build_structured_hex({.nx = 2, .ny = 2, .nz = 8},
                                                  ElementType::kHex8);
  const auto part_ids = mesh::partition_elements(m, 4, mesh::Partitioner::kSlab);
  const auto dist = mesh::distribute_mesh(m, part_ids, 4);
  simmpi::run(4, [&](Comm& comm) {
    DofMaps maps(comm, dist.parts[static_cast<std::size_t>(comm.rank())], 1);
    if (comm.rank() == 0) {
      EXPECT_EQ(maps.n_pre(), 0);
      // Rank 0 owns the shared interface layer (lowest rank wins), so it has
      // no ghosts at all and every element is independent.
      EXPECT_EQ(maps.n_post(), 0);
      EXPECT_TRUE(maps.dependent_elements().empty());
    } else {
      // Higher ranks read the interface layer owned below them.
      EXPECT_GT(maps.n_pre(), 0);
      EXPECT_FALSE(maps.dependent_elements().empty());
      EXPECT_FALSE(maps.independent_elements().empty());
    }
    // Every element is classified exactly once.
    EXPECT_EQ(static_cast<std::int64_t>(maps.independent_elements().size() +
                                        maps.dependent_elements().size()),
              maps.num_elements());
  });
}

TEST(DofMapsTest, E2LRoundTripsThroughE2G) {
  const mesh::Mesh m = mesh::build_structured_hex({.nx = 3, .ny = 3, .nz = 3},
                                                  ElementType::kHex8);
  const auto part_ids = mesh::partition_elements(m, 3, mesh::Partitioner::kRcb);
  const auto dist = mesh::distribute_mesh(m, part_ids, 3);
  simmpi::run(3, [&](Comm& comm) {
    const auto& part = dist.parts[static_cast<std::size_t>(comm.rank())];
    DofMaps maps(comm, part, 3);  // elasticity-style 3 dof/node
    const auto& ghosts = maps.ghost_ids();
    for (std::int64_t e = 0; e < maps.num_elements(); ++e) {
      const auto e2l = maps.e2l(e);
      const auto e2g = maps.e2g(e);
      for (std::size_t k = 0; k < e2l.size(); ++k) {
        const std::int64_t l = e2l[k];
        std::int64_t g_expected;
        if (l < maps.n_pre()) {
          g_expected = ghosts[static_cast<std::size_t>(l)];
        } else if (l < maps.n_pre() + maps.n_owned()) {
          g_expected = maps.layout().begin + (l - maps.n_pre());
        } else {
          g_expected = ghosts[static_cast<std::size_t>(
              maps.n_pre() + (l - maps.n_pre() - maps.n_owned()))];
        }
        EXPECT_EQ(g_expected, e2g[k]);
      }
    }
  });
}

TEST(DofMapsTest, DofExpansionInterleavesComponents) {
  const mesh::Mesh m = mesh::build_structured_hex({.nx = 1, .ny = 1, .nz = 1},
                                                  ElementType::kHex8);
  const std::vector<int> part_ids(1, 0);
  const auto dist = mesh::distribute_mesh(m, part_ids, 1);
  simmpi::run(1, [&](Comm& comm) {
    DofMaps maps(comm, dist.parts[0], 3);
    const auto e2g = maps.e2g(0);
    // First node's dofs are 3n, 3n+1, 3n+2.
    EXPECT_EQ(e2g[1], e2g[0] + 1);
    EXPECT_EQ(e2g[2], e2g[0] + 2);
    EXPECT_EQ(maps.ndofs_per_elem(), 24);
  });
}

// ---------------------------------------------------------------------------
// cross-backend SPMV equivalence (the core correctness property)
// ---------------------------------------------------------------------------

struct BackendCase {
  ElementType type;
  int ndof;  // 1 = Poisson, 3 = elasticity
  int nranks;
  mesh::Partitioner partitioner;
};

std::unique_ptr<fem::ElementOperator> make_operator(const BackendCase& c) {
  if (c.ndof == 1) {
    return std::make_unique<fem::PoissonOperator>(c.type);
  }
  return std::make_unique<fem::ElasticityOperator>(c.type, 1000.0, 0.3);
}

mesh::Mesh make_mesh(ElementType type) {
  if (mesh::is_hex(type)) {
    return mesh::build_structured_hex({.nx = 3, .ny = 3, .nz = 3}, type);
  }
  return mesh::build_unstructured_tet(
      {.box = {.nx = 2, .ny = 2, .nz = 2}, .jitter = 0.2, .seed = 5}, type);
}

/// Apply y = K x with the given backend, gathering the global result.
/// `x_global` and the returned y are indexed by ORIGINAL mesh dof ids
/// (node * ndof + component); distribution-specific renumbering is undone
/// via node_perm so results are comparable across rank counts.
/// backend: 0 = assembled CSR, 1 = HYMV, 2 = matrix-free.
std::vector<double> apply_global(const BackendCase& c, int backend,
                                 const std::vector<double>& x_global) {
  const mesh::Mesh m = make_mesh(c.type);
  const auto part_ids =
      mesh::partition_elements(m, c.nranks, c.partitioner);
  const auto dist = mesh::distribute_mesh(m, part_ids, c.nranks);

  // Inverse node permutation: renumbered node → original node.
  std::vector<std::int64_t> inv_perm(dist.node_perm.size());
  for (std::size_t n = 0; n < dist.node_perm.size(); ++n) {
    inv_perm[static_cast<std::size_t>(dist.node_perm[n])] =
        static_cast<std::int64_t>(n);
  }
  const auto orig_dof = [&](std::int64_t g) {
    const std::int64_t node = g / c.ndof;
    const std::int64_t comp = g % c.ndof;
    return inv_perm[static_cast<std::size_t>(node)] * c.ndof + comp;
  };

  std::vector<double> y_global(x_global.size(), 0.0);
  std::mutex mutex;
  simmpi::run(c.nranks, [&](Comm& comm) {
    const auto& part = dist.parts[static_cast<std::size_t>(comm.rank())];
    const auto op = make_operator(c);
    std::unique_ptr<pla::LinearOperator> lin;
    if (backend == 0) {
      auto setup = core::build_assembled_matrix(comm, part, *op);
      lin = std::move(setup.matrix);
    } else if (backend == 1) {
      lin = std::make_unique<HymvOperator>(comm, part, *op);
    } else {
      lin = std::make_unique<MatrixFreeOperator>(comm, part, *op);
    }
    pla::DistVector x(lin->layout()), y(lin->layout());
    for (std::int64_t i = 0; i < x.owned_size(); ++i) {
      x[i] = x_global[static_cast<std::size_t>(
          orig_dof(lin->layout().begin + i))];
    }
    lin->apply(comm, x, y);
    {
      std::lock_guard<std::mutex> lock(mutex);
      for (std::int64_t i = 0; i < y.owned_size(); ++i) {
        y_global[static_cast<std::size_t>(orig_dof(lin->layout().begin + i))] =
            y[i];
      }
    }
  });
  return y_global;
}

class BackendEquivalenceTest : public ::testing::TestWithParam<BackendCase> {};

TEST_P(BackendEquivalenceTest, AllBackendsAndRankCountsAgree) {
  const BackendCase c = GetParam();
  const mesh::Mesh m = make_mesh(c.type);
  const auto n_dofs =
      static_cast<std::size_t>(m.num_nodes() * c.ndof);
  std::vector<double> x(n_dofs);
  hymv::Xoshiro256 rng(99);
  for (double& v : x) {
    v = rng.uniform(-1.0, 1.0);
  }

  // Reference: assembled matrix on one rank. Note the reference mesh is
  // re-distributed per case, so dof numbering matches within the case.
  const BackendCase serial{c.type, c.ndof, 1, c.partitioner};
  const auto y_ref = apply_global(serial, 0, x);

  double ref_scale = 0.0;
  for (const double v : y_ref) {
    ref_scale = std::max(ref_scale, std::abs(v));
  }
  ASSERT_GT(ref_scale, 0.0);

  for (int backend : {0, 1, 2}) {
    const auto y = apply_global(c, backend, x);
    for (std::size_t i = 0; i < y.size(); ++i) {
      ASSERT_NEAR(y[i], y_ref[i], 1e-10 * ref_scale)
          << "backend=" << backend << " dof=" << i;
    }
  }
}

// gtest names each case after the raw bytes of its parameter, padding
// included. The table lives in static storage, whose padding is zero, so
// the ctest names are the same on every discovery; stack temporaries passed
// to ::testing::Values leaked uninitialised padding into them.
const BackendCase kBackendCases[] = {
    {ElementType::kHex8, 1, 2, mesh::Partitioner::kSlab},
    {ElementType::kHex8, 1, 4, mesh::Partitioner::kRcb},
    {ElementType::kHex8, 3, 3, mesh::Partitioner::kGreedy},
    {ElementType::kHex20, 1, 2, mesh::Partitioner::kSlab},
    {ElementType::kHex20, 3, 4, mesh::Partitioner::kRcb},
    {ElementType::kHex27, 1, 3, mesh::Partitioner::kGreedy},
    {ElementType::kHex27, 3, 2, mesh::Partitioner::kSlab},
    {ElementType::kTet4, 1, 4, mesh::Partitioner::kGreedy},
    {ElementType::kTet10, 1, 3, mesh::Partitioner::kRcb},
    {ElementType::kTet10, 3, 2, mesh::Partitioner::kGreedy},
};

INSTANTIATE_TEST_SUITE_P(Sweep, BackendEquivalenceTest,
                         ::testing::ValuesIn(kBackendCases));

// ---------------------------------------------------------------------------
// HYMV-specific behaviour
// ---------------------------------------------------------------------------

TEST(HymvOperatorTest, OverlapOnOffIdentical) {
  const mesh::Mesh m = mesh::build_structured_hex({.nx = 3, .ny = 3, .nz = 4},
                                                  ElementType::kHex8);
  const auto part_ids = mesh::partition_elements(m, 3, mesh::Partitioner::kSlab);
  const auto dist = mesh::distribute_mesh(m, part_ids, 3);
  simmpi::run(3, [&](Comm& comm) {
    const auto& part = dist.parts[static_cast<std::size_t>(comm.rank())];
    const fem::PoissonOperator op(ElementType::kHex8);
    HymvOperator hymv_op(comm, part, op);
    pla::DistVector x(hymv_op.layout()), y1(hymv_op.layout()),
        y2(hymv_op.layout());
    for (std::int64_t i = 0; i < x.owned_size(); ++i) {
      x[i] = std::cos(static_cast<double>(hymv_op.layout().begin + i));
    }
    constexpr int kLanes = 8;
    pla::DistMultiVector xm(hymv_op.layout(), kLanes),
        ym1(hymv_op.layout(), kLanes), ym2(hymv_op.layout(), kLanes);
    for (int l = 0; l < kLanes; ++l) {
      for (std::int64_t i = 0; i < x.owned_size(); ++i) {
        xm.at(i, l) = std::cos(
            static_cast<double>(hymv_op.layout().begin + i) + 0.5 * l);
      }
    }
    // Overlap only moves the ghost wait; each DoF's accumulation chain is
    // the same, so the two paths agree bit for bit.
    hymv_op.set_overlap(true);
    hymv_op.apply(comm, x, y1);
    hymv_op.apply_multi(comm, xm, ym1);
    hymv_op.set_overlap(false);
    hymv_op.apply(comm, x, y2);
    hymv_op.apply_multi(comm, xm, ym2);
    for (std::int64_t i = 0; i < y1.owned_size(); ++i) {
      EXPECT_EQ(y1[i], y2[i]) << "dof " << i;
    }
    EXPECT_EQ(std::memcmp(ym1.values().data(), ym2.values().data(),
                          ym1.values().size() * sizeof(double)),
              0);
  });
}

/// The operator's apply at every ISA level against the same maps and store
/// applied through the row-dot reference.
TEST(HymvOperatorTest, KernelsIdenticalThroughOperator) {
  const mesh::Mesh m = mesh::build_structured_hex({.nx = 2, .ny = 2, .nz = 2},
                                                  ElementType::kHex20);
  const auto part_ids = mesh::partition_elements(m, 2, mesh::Partitioner::kSlab);
  const auto dist = mesh::distribute_mesh(m, part_ids, 2);
  for (const isa::IsaLevel level :
       {isa::IsaLevel::kScalar, isa::IsaLevel::kAvx2, isa::IsaLevel::kAvx512}) {
    const isa::IsaLevel ran = isa::force(level);  // clamped to the CPU
    simmpi::run(2, [&](Comm& comm) {
      const auto& part = dist.parts[static_cast<std::size_t>(comm.rank())];
      const fem::ElasticityOperator op(ElementType::kHex20, 100.0, 0.25);
      HymvOperator hymv_op(comm, part, op);
      pla::DistVector x(hymv_op.layout());
      for (std::int64_t i = 0; i < x.owned_size(); ++i) {
        x[i] = std::sin(0.1 * static_cast<double>(i + 1));
      }
      pla::DistVector y_ref(hymv_op.layout()), y(hymv_op.layout());
      reference::apply_rowdot(comm, hymv_op, x, y_ref);
      hymv_op.apply(comm, x, y);
      for (std::int64_t i = 0; i < y_ref.owned_size(); ++i) {
        EXPECT_NEAR(y[i], y_ref[i], 1e-11) << "level=" << isa::to_string(ran);
      }
    });
  }
  isa::reset();
}

TEST(HymvOperatorTest, DiagonalMatchesAssembled) {
  const mesh::Mesh m = mesh::build_structured_hex({.nx = 3, .ny = 2, .nz = 3},
                                                  ElementType::kHex8);
  const auto part_ids = mesh::partition_elements(m, 3, mesh::Partitioner::kRcb);
  const auto dist = mesh::distribute_mesh(m, part_ids, 3);
  simmpi::run(3, [&](Comm& comm) {
    const auto& part = dist.parts[static_cast<std::size_t>(comm.rank())];
    const fem::ElasticityOperator op(ElementType::kHex8, 500.0, 0.2);
    HymvOperator hymv_op(comm, part, op);
    auto assembled = core::build_assembled_matrix(comm, part, op);
    const auto d_hymv = hymv_op.diagonal(comm);
    const auto d_csr = assembled.matrix->diagonal(comm);
    ASSERT_EQ(d_hymv.size(), d_csr.size());
    for (std::size_t i = 0; i < d_hymv.size(); ++i) {
      EXPECT_NEAR(d_hymv[i], d_csr[i], 1e-11 * std::abs(d_csr[i]) + 1e-13);
    }
  });
}

TEST(HymvOperatorTest, OwnedBlockMatchesAssembledDiagBlock) {
  const mesh::Mesh m = mesh::build_structured_hex({.nx = 2, .ny = 2, .nz = 4},
                                                  ElementType::kHex8);
  const auto part_ids = mesh::partition_elements(m, 2, mesh::Partitioner::kSlab);
  const auto dist = mesh::distribute_mesh(m, part_ids, 2);
  simmpi::run(2, [&](Comm& comm) {
    const auto& part = dist.parts[static_cast<std::size_t>(comm.rank())];
    const fem::PoissonOperator op(ElementType::kHex8);
    HymvOperator hymv_op(comm, part, op);
    auto assembled = core::build_assembled_matrix(comm, part, op);
    const pla::CsrMatrix block_h = hymv_op.owned_block(comm);
    const pla::CsrMatrix& block_a = assembled.matrix->diag_block();
    ASSERT_EQ(block_h.num_rows(), block_a.num_rows());
    for (std::int64_t r = 0; r < block_h.num_rows(); ++r) {
      for (std::int64_t c = 0; c < block_h.num_cols(); ++c) {
        EXPECT_NEAR(block_h.at(r, c), block_a.at(r, c), 1e-12)
            << "(" << r << "," << c << ")";
      }
    }
  });
}

TEST(HymvOperatorTest, UpdateElementsChangesOnlyTargets) {
  // The adaptive-matrix property: updating a subset of element matrices
  // must equal a full re-setup with the new material state.
  const mesh::Mesh m = mesh::build_structured_hex({.nx = 2, .ny = 2, .nz = 2},
                                                  ElementType::kHex8);
  const std::vector<int> part_ids(static_cast<std::size_t>(m.num_elements()),
                                  0);
  const auto dist = mesh::distribute_mesh(m, part_ids, 1);
  simmpi::run(1, [&](Comm& comm) {
    fem::ElasticityOperator op(ElementType::kHex8, 1000.0, 0.3);
    HymvOperator hymv_op(comm, part_ids.empty() ? dist.parts[0] : dist.parts[0],
                         op);
    // Soften elements 2 and 5 ("cracked") and update in place.
    fem::ElasticityOperator softened(ElementType::kHex8, 1000.0, 0.3);
    softened.set_stiffness_scale(0.01);
    const std::vector<std::int64_t> cracked{2, 5};
    hymv_op.update_elements(cracked, softened);

    // Reference: full setup where the operator produces softened matrices
    // only for those elements. Emulate by comparing stored entries.
    std::vector<double> ke_full(24 * 24), ke_soft(24 * 24);
    op.element_matrix(dist.parts[0].element_coords(2), ke_full);
    softened.element_matrix(dist.parts[0].element_coords(2), ke_soft);
    EXPECT_NEAR(hymv_op.store().at(2, 0, 0), ke_soft[0], 1e-12);
    EXPECT_NEAR(hymv_op.store().at(5, 3, 3), 0.01 * ke_full[3 * 24 + 3],
                1e-9 * std::abs(ke_full[3 * 24 + 3]));
    // Untouched element keeps the original stiffness.
    op.element_matrix(dist.parts[0].element_coords(0), ke_full);
    EXPECT_NEAR(hymv_op.store().at(0, 0, 0), ke_full[0], 1e-12);
  });
}

TEST(HymvOperatorTest, SetupBreakdownPopulated) {
  const mesh::Mesh m = mesh::build_structured_hex({.nx = 4, .ny = 4, .nz = 4},
                                                  ElementType::kHex8);
  const std::vector<int> part_ids(static_cast<std::size_t>(m.num_elements()),
                                  0);
  const auto dist = mesh::distribute_mesh(m, part_ids, 1);
  simmpi::run(1, [&](Comm& comm) {
    const fem::ElasticityOperator op(ElementType::kHex8, 1.0, 0.3);
    HymvOperator hymv_op(comm, dist.parts[0], op);
    const auto& setup = hymv_op.setup_breakdown();
    EXPECT_GT(setup.emat_compute_s, 0.0);
    EXPECT_GT(setup.local_copy_s, 0.0);
    EXPECT_GE(setup.maps_s, 0.0);
    // Element matrix computation dominates the local copy for elasticity.
    EXPECT_GT(setup.emat_compute_s, setup.local_copy_s);
  });
}

TEST(HymvOperatorTest, FlopAndByteEstimatesPositive) {
  const mesh::Mesh m = mesh::build_structured_hex({.nx = 2, .ny = 2, .nz = 2},
                                                  ElementType::kHex8);
  const std::vector<int> part_ids(static_cast<std::size_t>(m.num_elements()),
                                  0);
  const auto dist = mesh::distribute_mesh(m, part_ids, 1);
  simmpi::run(1, [&](Comm& comm) {
    const fem::PoissonOperator op(ElementType::kHex8);
    HymvOperator hymv_op(comm, dist.parts[0], op);
    MatrixFreeOperator mf_op(comm, dist.parts[0], op);
    auto assembled = core::build_assembled_matrix(comm, dist.parts[0], op);
    EXPECT_GT(hymv_op.apply_flops(), 0);
    EXPECT_GT(hymv_op.apply_bytes(), 0);
    // Matrix-free does far more flops than HYMV; assembled does fewer.
    EXPECT_GT(mf_op.apply_flops(), hymv_op.apply_flops());
    EXPECT_LT(assembled.matrix->apply_flops(), hymv_op.apply_flops());
  });
}

// ---------------------------------------------------------------------------
// RHS assembly + Dirichlet helpers
// ---------------------------------------------------------------------------

TEST(AssemblyTest, RhsMatchesSingleRankReference) {
  const mesh::Mesh m = mesh::build_structured_hex({.nx = 3, .ny = 3, .nz = 3},
                                                  ElementType::kHex8);
  const fem::PoissonOperator op(
      ElementType::kHex8,
      [](const mesh::Point& x) { return x[0] + 2.0 * x[1] - x[2]; });

  // Single-rank reference.
  std::vector<double> f_ref(static_cast<std::size_t>(m.num_nodes()));
  {
    const std::vector<int> ids(static_cast<std::size_t>(m.num_elements()), 0);
    const auto dist = mesh::distribute_mesh(m, ids, 1);
    simmpi::run(1, [&](Comm& comm) {
      DofMaps maps(comm, dist.parts[0], 1);
      const auto rhs = core::assemble_rhs(comm, maps, dist.parts[0], op);
      std::copy(rhs.values().begin(), rhs.values().end(), f_ref.begin());
    });
  }

  // Multi-rank must agree (same mesh → same dof numbering per distribution;
  // compare through the node_perm of each distribution).
  const auto part_ids = mesh::partition_elements(m, 3, mesh::Partitioner::kRcb);
  const auto dist = mesh::distribute_mesh(m, part_ids, 3);
  // Reference was computed with the single-rank distribution's numbering,
  // which for 1 rank is identity (all nodes owned by rank 0 in input order).
  std::vector<double> f_multi(static_cast<std::size_t>(m.num_nodes()), 0.0);
  std::mutex mutex;
  simmpi::run(3, [&](Comm& comm) {
    const auto& part = dist.parts[static_cast<std::size_t>(comm.rank())];
    DofMaps maps(comm, part, 1);
    const auto rhs = core::assemble_rhs(comm, maps, part, op);
    std::lock_guard<std::mutex> lock(mutex);
    for (std::int64_t i = 0; i < rhs.owned_size(); ++i) {
      f_multi[static_cast<std::size_t>(maps.layout().begin + i)] = rhs[i];
    }
  });
  // Map back: multi-rank dof g corresponds to original node n with
  // dist.node_perm[n] == g.
  for (std::int64_t n = 0; n < m.num_nodes(); ++n) {
    const auto g = static_cast<std::size_t>(
        dist.node_perm[static_cast<std::size_t>(n)]);
    EXPECT_NEAR(f_multi[g], f_ref[static_cast<std::size_t>(n)], 1e-12);
  }
}

TEST(AssemblyTest, MakeDirichletFindsBoundaryNodes) {
  const mesh::Mesh m = mesh::build_structured_hex({.nx = 2, .ny = 2, .nz = 2},
                                                  ElementType::kHex8);
  const std::vector<int> ids(static_cast<std::size_t>(m.num_elements()), 0);
  const auto dist = mesh::distribute_mesh(m, ids, 1);
  const mesh::Point lo{0, 0, 0}, hi{1, 1, 1};
  const auto constraints = core::make_dirichlet(
      dist.parts[0], 1,
      [&](const mesh::Point& x) { return core::on_box_boundary(x, lo, hi); },
      [](const mesh::Point&) { return std::vector<double>{0.0}; });
  // 3×3×3 nodes, only the center node is interior.
  EXPECT_EQ(constraints.size(), 27 - 1);
}

TEST(AssemblyTest, OnBoxBoundary) {
  const mesh::Point lo{0, 0, 0}, hi{1, 2, 3};
  EXPECT_TRUE(core::on_box_boundary({0.0, 1.0, 1.5}, lo, hi));
  EXPECT_TRUE(core::on_box_boundary({0.5, 2.0, 1.5}, lo, hi));
  EXPECT_TRUE(core::on_box_boundary({0.5, 1.0, 3.0}, lo, hi));
  EXPECT_FALSE(core::on_box_boundary({0.5, 1.0, 1.5}, lo, hi));
}

}  // namespace
