#include <cmath>
#include <limits>

#include "bench.hpp"

namespace perfbench {

double spmv_tolerance(std::int64_t max_row_len, double max_abs_a,
                      double max_abs_x) {
  return std::numeric_limits<double>::epsilon() *
         static_cast<double>(max_row_len) * max_abs_a * max_abs_x;
}

std::string check_spmv(std::span<const double> y, std::span<const double> y_ref,
                       double tol) {
  if (y.size() != y_ref.size()) {
    return "spmv: output has " + std::to_string(y.size()) + " entries, " +
           "reference " + std::to_string(y_ref.size());
  }
  for (std::size_t i = 0; i < y.size(); ++i) {
    const double err = std::abs(y[i] - y_ref[i]);
    if (!(err <= tol)) {
      return "spmv: entry " + std::to_string(i) + " off by " +
             json_number(err) + " > tolerance " + json_number(tol);
    }
  }
  return "";
}

std::string check_solve(const hymv::pla::CgResult& cg, double true_rel_residual,
                        double rtol) {
  if (!cg.converged) {
    return "solve: CG did not converge in " + std::to_string(cg.iterations) +
           " iterations";
  }
  if (!(true_rel_residual <= rtol)) {
    return "solve: true relative residual " + json_number(true_rel_residual) +
           " > rtol " + json_number(rtol);
  }
  return "";
}

std::string check_reply(const hymv::svc::SolveResponse& reply,
                        double err_bound) {
  if (reply.outcome != hymv::svc::Outcome::kSolved) {
    return std::string("service: outcome ") +
           hymv::svc::outcome_name(reply.outcome) + " (" + reply.reason + ")";
  }
  if (!(reply.err_inf <= err_bound)) {
    return "service: err_inf " + json_number(reply.err_inf) + " > bound " +
           json_number(err_bound);
  }
  return "";
}

}  // namespace perfbench
