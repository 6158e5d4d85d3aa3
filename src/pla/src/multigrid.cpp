#include "hymv/pla/multigrid.hpp"

#include <algorithm>
#include <cmath>

#include "hymv/common/error.hpp"
#include "hymv/obs/metrics.hpp"
#include "hymv/obs/trace.hpp"

namespace hymv::pla {

namespace {

constexpr std::int64_t kOmpMinRows = 512;  ///< matches CsrMatrix::spmv

/// y = A x with fp32 values and fp64 accumulation. Row-parallel with one
/// writer per row — bitwise identical for every thread count, like
/// CsrMatrix::spmv.
void spmv32(const CsrMatrix& a, const std::vector<float>& vals,
            std::span<const double> x, std::span<double> y) {
  const auto& rp = a.row_ptr();
  const auto& ci = a.col_idx();
  const std::int64_t n = a.num_rows();
#pragma omp parallel for schedule(static) if (n >= kOmpMinRows)
  for (std::int64_t i = 0; i < n; ++i) {
    double acc = 0.0;
    for (std::int64_t k = rp[static_cast<std::size_t>(i)];
         k < rp[static_cast<std::size_t>(i) + 1]; ++k) {
      acc += static_cast<double>(vals[static_cast<std::size_t>(k)]) *
             x[static_cast<std::size_t>(ci[static_cast<std::size_t>(k)])];
    }
    y[static_cast<std::size_t>(i)] = acc;
  }
}

/// Serial Gustavson SpGEMM, C = X·Y. Row-major sparse accumulator with a
/// deterministic (left-to-right) summation order; setup-phase only.
CsrMatrix spgemm(const CsrMatrix& x, const CsrMatrix& y) {
  HYMV_CHECK_MSG(x.num_cols() == y.num_rows(), "spgemm: shape mismatch");
  const std::int64_t nrows = x.num_rows();
  const std::int64_t ncols = y.num_cols();
  const auto& xrp = x.row_ptr();
  const auto& xci = x.col_idx();
  const auto& xv = x.values();
  const auto& yrp = y.row_ptr();
  const auto& yci = y.col_idx();
  const auto& yv = y.values();

  std::vector<double> acc(static_cast<std::size_t>(ncols), 0.0);
  std::vector<std::int64_t> touched;
  std::vector<std::uint8_t> mark(static_cast<std::size_t>(ncols), 0);
  std::vector<Triplet> triplets;
  for (std::int64_t i = 0; i < nrows; ++i) {
    touched.clear();
    for (std::int64_t kx = xrp[static_cast<std::size_t>(i)];
         kx < xrp[static_cast<std::size_t>(i) + 1]; ++kx) {
      const auto j = static_cast<std::size_t>(xci[static_cast<std::size_t>(kx)]);
      const double v = xv[static_cast<std::size_t>(kx)];
      for (std::int64_t ky = yrp[j]; ky < yrp[j + 1]; ++ky) {
        const auto c = static_cast<std::size_t>(yci[static_cast<std::size_t>(ky)]);
        if (mark[c] == 0) {
          mark[c] = 1;
          acc[c] = 0.0;
          touched.push_back(static_cast<std::int64_t>(c));
        }
        acc[c] += v * yv[static_cast<std::size_t>(ky)];
      }
    }
    for (const std::int64_t c : touched) {
      triplets.push_back({i, c, acc[static_cast<std::size_t>(c)]});
      mark[static_cast<std::size_t>(c)] = 0;
    }
  }
  return CsrMatrix::from_triplets(nrows, ncols, std::move(triplets));
}

/// CSR transpose (setup-phase only).
CsrMatrix transpose(const CsrMatrix& a) {
  std::vector<Triplet> triplets;
  triplets.reserve(static_cast<std::size_t>(a.num_nonzeros()));
  const auto& rp = a.row_ptr();
  const auto& ci = a.col_idx();
  const auto& v = a.values();
  for (std::int64_t i = 0; i < a.num_rows(); ++i) {
    for (std::int64_t k = rp[static_cast<std::size_t>(i)];
         k < rp[static_cast<std::size_t>(i) + 1]; ++k) {
      triplets.push_back({ci[static_cast<std::size_t>(k)], i,
                          v[static_cast<std::size_t>(k)]});
    }
  }
  return CsrMatrix::from_triplets(a.num_cols(), a.num_rows(),
                                  std::move(triplets));
}

/// Dense column-major LU with partial pivoting (coarse-level factorization).
void lu_factor(std::int64_t n, std::vector<double>& a,
               std::vector<std::int64_t>& piv) {
  piv.resize(static_cast<std::size_t>(n));
  const auto idx = [n](std::int64_t r, std::int64_t c) {
    return static_cast<std::size_t>(c * n + r);
  };
  for (std::int64_t col = 0; col < n; ++col) {
    std::int64_t p = col;
    for (std::int64_t r = col + 1; r < n; ++r) {
      if (std::abs(a[idx(r, col)]) > std::abs(a[idx(p, col)])) {
        p = r;
      }
    }
    HYMV_CHECK_MSG(std::abs(a[idx(p, col)]) > 0.0,
                   "multigrid coarse LU: singular matrix");
    piv[static_cast<std::size_t>(col)] = p;
    if (p != col) {
      for (std::int64_t c = 0; c < n; ++c) {
        std::swap(a[idx(col, c)], a[idx(p, c)]);
      }
    }
    const double inv = 1.0 / a[idx(col, col)];
    for (std::int64_t r = col + 1; r < n; ++r) {
      a[idx(r, col)] *= inv;
    }
    for (std::int64_t c = col + 1; c < n; ++c) {
      const double m = a[idx(col, c)];
      if (m == 0.0) {
        continue;
      }
      for (std::int64_t r = col + 1; r < n; ++r) {
        a[idx(r, c)] -= a[idx(r, col)] * m;
      }
    }
  }
}

void lu_solve(std::int64_t n, const std::vector<double>& a,
              const std::vector<std::int64_t>& piv,
              std::span<const double> b, std::span<double> x) {
  const auto idx = [n](std::int64_t r, std::int64_t c) {
    return static_cast<std::size_t>(c * n + r);
  };
  std::copy(b.begin(), b.end(), x.begin());
  for (std::int64_t i = 0; i < n; ++i) {
    const std::int64_t p = piv[static_cast<std::size_t>(i)];
    if (p != i) {
      std::swap(x[static_cast<std::size_t>(i)], x[static_cast<std::size_t>(p)]);
    }
  }
  for (std::int64_t c = 0; c < n; ++c) {  // L (unit lower) forward
    const double xc = x[static_cast<std::size_t>(c)];
    if (xc == 0.0) {
      continue;
    }
    for (std::int64_t r = c + 1; r < n; ++r) {
      x[static_cast<std::size_t>(r)] -= a[idx(r, c)] * xc;
    }
  }
  for (std::int64_t c = n - 1; c >= 0; --c) {  // U backward
    double xc = x[static_cast<std::size_t>(c)] / a[idx(c, c)];
    x[static_cast<std::size_t>(c)] = xc;
    if (xc == 0.0) {
      continue;
    }
    for (std::int64_t r = 0; r < c; ++r) {
      x[static_cast<std::size_t>(r)] -= a[idx(r, c)] * xc;
    }
  }
}

}  // namespace

/// One level of the hierarchy. Level 0 is the fine problem; every coarser
/// level lives on the full vertex sub-lattice of stride `stride` on the
/// fine half-step lattice.
struct GeometricMultigridPreconditioner::Level {
  std::int64_t n = 0;            ///< DoFs on this level
  CsrMatrix a;                   ///< level operator (fp64 values)
  std::vector<float> a_vals32;   ///< fp32 value copy (fp32 mode only)
  std::vector<double> inv_diag;
  std::vector<float> inv_diag32;
  double lmax = 1.0;             ///< Chebyshev smoothing interval top
  double lmin = 0.0;
  CsrMatrix p;    ///< prolongation FROM the next coarser level (empty on coarsest)
  CsrMatrix pt;   ///< restriction = pᵀ
  // Coarsest-level solver (exactly one of the two is armed).
  std::vector<double> lu;
  std::vector<std::int64_t> lu_piv;
  std::unique_ptr<Ilu0> ilu;
  // Cycle scratch, sized n.
  std::vector<double> x, b, r, t, d;
};

/// y = A_level x with the level's precision mode.
void GeometricMultigridPreconditioner::level_spmv(const Level& lvl,
                                                  std::span<const double> x,
                                                  std::span<double> y) {
  if (!lvl.a_vals32.empty()) {
    spmv32(lvl.a, lvl.a_vals32, x, y);
  } else {
    lvl.a.spmv(x, y);
  }
}

/// t = D⁻¹ v with the level's precision mode (fp32 widened to fp64).
void GeometricMultigridPreconditioner::level_scale(const Level& lvl,
                                                   std::span<const double> v,
                                                   std::span<double> t) {
  if (!lvl.inv_diag32.empty()) {
    for (std::size_t i = 0; i < v.size(); ++i) {
      t[i] = static_cast<double>(lvl.inv_diag32[i]) * v[i];
    }
    return;
  }
  for (std::size_t i = 0; i < v.size(); ++i) {
    t[i] = lvl.inv_diag[i] * v[i];
  }
}

void GeometricMultigridPreconditioner::smooth(std::size_t level) {
  Level& lvl = *levels_[level];
  if (opt_.smoother == MultigridOptions::Smoother::kJacobi) {
    // Damped Jacobi, ω = 2/3.
    for (int s = 0; s < opt_.sweeps; ++s) {
      level_spmv(lvl, lvl.x, lvl.t);
      for (std::size_t i = 0; i < lvl.r.size(); ++i) {
        lvl.r[i] = lvl.b[i] - lvl.t[i];
      }
      level_scale(lvl, lvl.r, lvl.t);
      for (std::size_t i = 0; i < lvl.x.size(); ++i) {
        lvl.x[i] += (2.0 / 3.0) * lvl.t[i];
      }
    }
    return;
  }
  // Chebyshev: each sweep applies a degree-cheb_degree polynomial
  // correction targeting [lmin, lmax] (same recurrence as
  // ChebyshevPreconditioner::apply, on serial level vectors).
  const double theta = 0.5 * (lvl.lmax + lvl.lmin);
  const double delta = 0.5 * (lvl.lmax - lvl.lmin);
  const double sigma = theta / delta;
  for (int s = 0; s < opt_.sweeps; ++s) {
    level_spmv(lvl, lvl.x, lvl.t);
    for (std::size_t i = 0; i < lvl.r.size(); ++i) {
      lvl.r[i] = lvl.b[i] - lvl.t[i];
    }
    level_scale(lvl, lvl.r, lvl.d);
    const double inv_theta = 1.0 / theta;
    for (std::size_t i = 0; i < lvl.d.size(); ++i) {
      lvl.d[i] *= inv_theta;
      lvl.x[i] += lvl.d[i];
    }
    double rho = 1.0 / sigma;
    for (int k = 1; k < opt_.cheb_degree; ++k) {
      level_spmv(lvl, lvl.d, lvl.t);
      for (std::size_t i = 0; i < lvl.r.size(); ++i) {
        lvl.r[i] -= lvl.t[i];
      }
      level_scale(lvl, lvl.r, lvl.t);
      const double rho_new = 1.0 / (2.0 * sigma - rho);
      const double c_d = rho_new * rho;
      const double c_r = 2.0 * rho_new / delta;
      for (std::size_t i = 0; i < lvl.d.size(); ++i) {
        lvl.d[i] = c_d * lvl.d[i] + c_r * lvl.t[i];
        lvl.x[i] += lvl.d[i];
      }
      rho = rho_new;
    }
  }
}

GeometricMultigridPreconditioner::GeometricMultigridPreconditioner(
    simmpi::Comm& comm, CsrMatrix a_fine, const MgGridSpec& grid,
    const std::vector<std::uint8_t>& constrained, const Layout& layout,
    const MultigridOptions& options)
    : layout_(layout), opt_(options) {
  HYMV_TRACE_SCOPE("precond.mg.setup", "precond");
  HYMV_CHECK_MSG(grid.mx >= 3 && grid.my >= 3 && grid.mz >= 3,
                 "multigrid: lattice too small");
  HYMV_CHECK_MSG(static_cast<std::int64_t>(grid.node_at.size()) ==
                     grid.mx * grid.my * grid.mz,
                 "multigrid: node_at size mismatch");
  const std::int64_t total_dofs = a_fine.num_rows();
  HYMV_CHECK_MSG(
      static_cast<std::int64_t>(constrained.size()) == total_dofs &&
          layout.global_size == total_dofs,
      "multigrid: constrained mask / layout size mismatch");
  const int ndof = grid.ndof;

  // Base lattice spacing of the fine node set: hex8 meshes have nodes only
  // at even lattice points (spacing 2), hex20/27 at unit spacing. The first
  // coarse level always doubles it.
  std::int64_t s0 = 2;
  for (std::int64_t k = 0; k < grid.mz && s0 == 2; ++k) {
    for (std::int64_t j = 0; j < grid.my && s0 == 2; ++j) {
      for (std::int64_t i = 1; i < grid.mx; i += 2) {
        if (grid.node_at[grid.index(i, j, k)] >= 0) {
          s0 = 1;
          break;
        }
      }
    }
  }

  auto fine = std::make_unique<Level>();
  fine->n = total_dofs;
  fine->a = std::move(a_fine);
  levels_.push_back(std::move(fine));

  // Sub-lattice constrained flag: a coarse point always coincides with a
  // fine lattice node (all-even points exist in every hex type), so the
  // Dirichlet status of each of its components is injected from the fine
  // mask.
  const auto point_constrained = [&](std::int64_t i, std::int64_t j,
                                     std::int64_t k, int c) {
    const std::int64_t node = grid.node_at[grid.index(i, j, k)];
    HYMV_CHECK_MSG(node >= 0, "multigrid: coarse point has no fine node");
    return constrained[static_cast<std::size_t>(node * ndof + c)] != 0;
  };

  std::int64_t stride = s0;  // stride of the CURRENT finest-built level
  while (static_cast<int>(levels_.size()) < opt_.max_levels) {
    const std::int64_t cs = 2 * stride;  // candidate coarse stride
    if ((grid.mx - 1) % cs != 0 || (grid.my - 1) % cs != 0 ||
        (grid.mz - 1) % cs != 0) {
      break;
    }
    const std::int64_t cx = (grid.mx - 1) / cs + 1;
    const std::int64_t cy = (grid.my - 1) / cs + 1;
    const std::int64_t cz = (grid.mz - 1) / cs + 1;
    if (cx < 3 || cy < 3 || cz < 3) {
      break;
    }
    Level& fine_lvl = *levels_.back();
    if (fine_lvl.n <= opt_.coarse_target) {
      break;
    }
    const std::int64_t nc = cx * cy * cz * ndof;

    // Trilinear prolongation P: every fine-side lattice point sits at
    // fractional coords {0, 1/2} of its coarse cell, so the weights are
    // exact powers of two. Rows at constrained fine DoFs and columns at
    // constrained coarse DoFs are zeroed (the error is zero there).
    const auto coarse_dof = [&](std::int64_t ci, std::int64_t cj,
                                std::int64_t ck, int c) {
      return ((ck * cy + cj) * cx + ci) * ndof + c;
    };
    std::vector<Triplet> p_triplets;
    const auto add_row = [&](std::int64_t row_base, std::int64_t i,
                             std::int64_t j, std::int64_t k,
                             const auto& row_constrained) {
      const std::int64_t i0 = i / cs, j0 = j / cs, k0 = k / cs;
      const std::int64_t fi = i - i0 * cs, fj = j - j0 * cs,
                         fk = k - k0 * cs;
      for (int dk = 0; dk <= 1; ++dk) {
        const double wk = dk == 0 ? 1.0 - static_cast<double>(fk) /
                                              static_cast<double>(cs)
                                  : static_cast<double>(fk) /
                                        static_cast<double>(cs);
        if (wk == 0.0 || k0 + dk >= cz) {
          continue;
        }
        for (int dj = 0; dj <= 1; ++dj) {
          const double wj = dj == 0 ? 1.0 - static_cast<double>(fj) /
                                                static_cast<double>(cs)
                                    : static_cast<double>(fj) /
                                          static_cast<double>(cs);
          if (wj == 0.0 || j0 + dj >= cy) {
            continue;
          }
          for (int di = 0; di <= 1; ++di) {
            const double wi = di == 0 ? 1.0 - static_cast<double>(fi) /
                                                  static_cast<double>(cs)
                                      : static_cast<double>(fi) /
                                            static_cast<double>(cs);
            if (wi == 0.0 || i0 + di >= cx) {
              continue;
            }
            for (int c = 0; c < ndof; ++c) {
              if (row_constrained(c)) {
                continue;
              }
              if (point_constrained((i0 + di) * cs, (j0 + dj) * cs,
                                    (k0 + dk) * cs, c)) {
                continue;
              }
              p_triplets.push_back(
                  {row_base + c,
                   coarse_dof(i0 + di, j0 + dj, k0 + dk, c),
                   wi * wj * wk});
            }
          }
        }
      }
    };
    if (levels_.size() == 1) {
      // Fine side is the real node set: walk every lattice point that
      // hosts a node.
      for (std::int64_t k = 0; k < grid.mz; ++k) {
        for (std::int64_t j = 0; j < grid.my; ++j) {
          for (std::int64_t i = 0; i < grid.mx; ++i) {
            const std::int64_t node = grid.node_at[grid.index(i, j, k)];
            if (node < 0) {
              continue;
            }
            add_row(node * ndof, i, j, k, [&](int c) {
              return constrained[static_cast<std::size_t>(node * ndof + c)] !=
                     0;
            });
          }
        }
      }
    } else {
      // Fine side is itself a full vertex sub-lattice of stride `stride`.
      const std::int64_t fx = (grid.mx - 1) / stride + 1;
      const std::int64_t fy = (grid.my - 1) / stride + 1;
      const std::int64_t fz = (grid.mz - 1) / stride + 1;
      for (std::int64_t k = 0; k < fz; ++k) {
        for (std::int64_t j = 0; j < fy; ++j) {
          for (std::int64_t i = 0; i < fx; ++i) {
            const std::int64_t row_base = ((k * fy + j) * fx + i) * ndof;
            add_row(row_base, i * stride, j * stride, k * stride, [&](int c) {
              return point_constrained(i * stride, j * stride, k * stride, c);
            });
          }
        }
      }
    }
    CsrMatrix p = CsrMatrix::from_triplets(fine_lvl.n, nc,
                                           std::move(p_triplets));
    CsrMatrix pt = transpose(p);

    // Galerkin coarse operator A_c = Pᵀ A P (fp64 setup even in fp32 mode).
    CsrMatrix ac = spgemm(pt, spgemm(fine_lvl.a, p));

    // Constrained (and otherwise empty) coarse rows decouple: pin an
    // identity diagonal so the smoothers and the coarse factorization stay
    // well-posed. Only diagonals that are zero for a NON-structural reason
    // count as singular.
    {
      std::vector<double> diag = ac.diagonal();
      std::vector<Triplet> fix;
      std::int64_t singular = 0;
      for (std::int64_t g = 0; g < nc; ++g) {
        if (diag[static_cast<std::size_t>(g)] != 0.0) {
          continue;
        }
        const std::int64_t point = g / ndof;
        const int c = static_cast<int>(g % ndof);
        const std::int64_t ck = point / (cx * cy);
        const std::int64_t cj = (point / cx) % cy;
        const std::int64_t ci = point % cx;
        if (!point_constrained(ci * cs, cj * cs, ck * cs, c)) {
          HYMV_CHECK_MSG(!opt_.strict, "multigrid: singular coarse diagonal");
          ++singular;
        }
        fix.push_back({g, g, 1.0});
      }
      if (!fix.empty()) {
        // Rebuild with the identity diagonals merged in (zero-diagonal rows
        // had no stored diagonal entry).
        const auto& rp = ac.row_ptr();
        const auto& ci_idx = ac.col_idx();
        const auto& v = ac.values();
        for (std::int64_t i = 0; i < nc; ++i) {
          for (std::int64_t k = rp[static_cast<std::size_t>(i)];
               k < rp[static_cast<std::size_t>(i) + 1]; ++k) {
            fix.push_back({i, ci_idx[static_cast<std::size_t>(k)],
                           v[static_cast<std::size_t>(k)]});
          }
        }
        ac = CsrMatrix::from_triplets(nc, nc, std::move(fix));
      }
      if (singular > 0) {
        comm.metrics().counter("precond.singular_rows").add(singular);
      }
    }

    auto coarse = std::make_unique<Level>();
    coarse->n = nc;
    coarse->a = std::move(ac);
    fine_lvl.p = std::move(p);
    fine_lvl.pt = std::move(pt);
    levels_.push_back(std::move(coarse));
    stride = cs;
  }

  // Per-level smoother state + coarse solver.
  for (std::size_t l = 0; l < levels_.size(); ++l) {
    Level& lvl = *levels_[l];
    lvl.x.assign(static_cast<std::size_t>(lvl.n), 0.0);
    lvl.b.assign(static_cast<std::size_t>(lvl.n), 0.0);
    lvl.r.assign(static_cast<std::size_t>(lvl.n), 0.0);
    lvl.t.assign(static_cast<std::size_t>(lvl.n), 0.0);
    lvl.d.assign(static_cast<std::size_t>(lvl.n), 0.0);

    std::vector<double> inv_diag = lvl.a.diagonal();
    std::int64_t singular = 0;
    for (double& d : inv_diag) {
      if (!(std::abs(d) > 0.0)) {
        HYMV_CHECK_MSG(!opt_.strict, "multigrid: zero level diagonal");
        d = 1.0;
        ++singular;
        continue;
      }
      d = 1.0 / d;
    }
    if (singular > 0) {
      comm.metrics().counter("precond.singular_rows").add(singular);
    }

    const bool coarsest = l + 1 == levels_.size();
    if (coarsest) {
      if (opt_.coarse == MultigridOptions::CoarseSolve::kDirect &&
          lvl.n <= 4096) {
        std::vector<double> dense(
            static_cast<std::size_t>(lvl.n) * static_cast<std::size_t>(lvl.n),
            0.0);
        const auto& rp = lvl.a.row_ptr();
        const auto& ci = lvl.a.col_idx();
        const auto& v = lvl.a.values();
        for (std::int64_t i = 0; i < lvl.n; ++i) {
          for (std::int64_t k = rp[static_cast<std::size_t>(i)];
               k < rp[static_cast<std::size_t>(i) + 1]; ++k) {
            dense[static_cast<std::size_t>(
                ci[static_cast<std::size_t>(k)] * lvl.n + i)] =
                v[static_cast<std::size_t>(k)];
          }
        }
        lu_factor(lvl.n, dense, lvl.lu_piv);
        lvl.lu = std::move(dense);
      } else {
        lvl.ilu = std::make_unique<Ilu0>(lvl.a);
      }
    } else if (opt_.smoother == MultigridOptions::Smoother::kChebyshev) {
      // Power iteration for λ_max(D⁻¹A) — serial, deterministic start.
      std::vector<double> pv(static_cast<std::size_t>(lvl.n));
      std::vector<double> pw(static_cast<std::size_t>(lvl.n));
      for (std::int64_t i = 0; i < lvl.n; ++i) {
        pv[static_cast<std::size_t>(i)] =
            1.0 + 0.5 * std::sin(0.7 * static_cast<double>(i));
      }
      double lmax = 1.0;
      for (int it = 0; it < 10; ++it) {
        lvl.a.spmv(pv, pw);
        for (std::int64_t i = 0; i < lvl.n; ++i) {
          pw[static_cast<std::size_t>(i)] *=
              inv_diag[static_cast<std::size_t>(i)];
        }
        double vv = 0.0, vw = 0.0, ww = 0.0;
        for (std::int64_t i = 0; i < lvl.n; ++i) {
          const double a = pv[static_cast<std::size_t>(i)];
          const double b = pw[static_cast<std::size_t>(i)];
          vv += a * a;
          vw += a * b;
          ww += b * b;
        }
        if (vv > 0.0 && vw > 0.0) {
          lmax = vw / vv;
        }
        if (!(ww > 0.0)) {
          break;
        }
        const double inv_norm = 1.0 / std::sqrt(ww);
        for (std::int64_t i = 0; i < lvl.n; ++i) {
          pv[static_cast<std::size_t>(i)] =
              pw[static_cast<std::size_t>(i)] * inv_norm;
        }
      }
      // Smoothing interval: target the upper part of the spectrum (the
      // coarse grid handles the rest) — hypre's Chebyshev smoother default.
      lvl.lmax = 1.1 * lmax;
      lvl.lmin = 0.3 * lmax;
    }

    if (opt_.fp32) {
      lvl.a_vals32.assign(lvl.a.values().begin(), lvl.a.values().end());
      lvl.inv_diag32.assign(inv_diag.begin(), inv_diag.end());
    } else {
      lvl.inv_diag = std::move(inv_diag);
    }
  }

  comm.metrics().gauge("precond.mg.levels")
      .set(static_cast<double>(levels_.size()));
  comm.metrics().gauge("precond.mg.coarse_dofs")
      .set(static_cast<double>(levels_.back()->n));
}

GeometricMultigridPreconditioner::~GeometricMultigridPreconditioner() =
    default;

int GeometricMultigridPreconditioner::num_levels() const {
  return static_cast<int>(levels_.size());
}

std::int64_t GeometricMultigridPreconditioner::coarse_dofs() const {
  return levels_.back()->n;
}

void GeometricMultigridPreconditioner::v_cycle(const std::vector<double>& b,
                                               std::vector<double>& z) {
  HYMV_CHECK_MSG(static_cast<std::int64_t>(b.size()) == levels_[0]->n,
                 "multigrid: v_cycle size mismatch");
  Level& fine = *levels_[0];
  std::copy(b.begin(), b.end(), fine.b.begin());

  for (std::size_t l = 0; l < levels_.size(); ++l) {
    Level& lvl = *levels_[l];
    std::fill(lvl.x.begin(), lvl.x.end(), 0.0);
    if (l + 1 == levels_.size()) {
      // Coarsest: direct (or ILU0) solve.
      if (!lvl.lu.empty()) {
        lu_solve(lvl.n, lvl.lu, lvl.lu_piv, lvl.b, lvl.x);
      } else {
        lvl.ilu->solve(lvl.b, lvl.x);
      }
      break;
    }
    // Pre-smooth + restrict the residual to the next level.
    smooth(l);
    level_spmv(lvl, lvl.x, lvl.t);
    for (std::size_t i = 0; i < lvl.r.size(); ++i) {
      lvl.r[i] = lvl.b[i] - lvl.t[i];
    }
    lvl.pt.spmv(lvl.r, levels_[l + 1]->b);
  }

  for (std::size_t l = levels_.size() - 1; l-- > 0;) {
    // Prolongate the coarse correction, then post-smooth.
    Level& lvl = *levels_[l];
    lvl.p.spmv(levels_[l + 1]->x, lvl.t);
    for (std::size_t i = 0; i < lvl.x.size(); ++i) {
      lvl.x[i] += lvl.t[i];
    }
    smooth(l);
  }

  z.assign(levels_[0]->x.begin(), levels_[0]->x.end());
}

void GeometricMultigridPreconditioner::apply(simmpi::Comm& comm,
                                             const DistVector& r,
                                             DistVector& z) {
  HYMV_TRACE_SCOPE("precond.mg.apply", "precond");
  HYMV_CHECK_MSG(r.owned_size() == layout_.owned(),
                 "multigrid: apply size mismatch");
  if (comm.size() == 1) {
    gr_.assign(r.values().begin(), r.values().end());
  } else {
    // Rank ranges are ordered and contiguous, so the rank-ordered
    // concatenation of owned blocks IS the global vector.
    gr_ = comm.allgatherv(r.values(), nullptr);
  }
  v_cycle(gr_, gz_);
  const auto zs = z.values();
  const auto begin = static_cast<std::size_t>(layout_.begin);
  for (std::size_t i = 0; i < zs.size(); ++i) {
    zs[i] = gz_[begin + i];
  }
}

}  // namespace hymv::pla
