// pygb/jit/interp_kernels.cpp — the interpreted dispatch backend.
//
// This is the design alternative §V of the paper rejects for performance: a
// single generic kernel that stages every container through a common
// runtime representation (double) and dispatches operators per element
// through runtime descriptors. We keep it because (a) it makes every
// request satisfiable without a compiler, and (b) benchmarking it against
// the compiled backends reproduces the paper's argument quantitatively
// (bench_ablation_backend).
//
// Documented limitation: integer values outside ±2^53 lose precision in
// the double staging. The compiled backends are exact.
#include <cmath>
#include <stdexcept>
#include <utility>

#include "gbtl/detail/pool.hpp"
#include "pygb/jit/glue.hpp"
#include "pygb/jit/registry.hpp"

namespace pygb::jit {

namespace {

using gbtl::Matrix;
using gbtl::Vector;

// --- staging ---------------------------------------------------------------

Matrix<double> stage_matrix(const void* p, DType dt) {
  return visit_dtype(dt, [&](auto tag) {
    using T = typename decltype(tag)::type;
    const auto& src = *static_cast<const Matrix<T>*>(p);
    // Governor charge for the double-staged copy, taken BEFORE the copy is
    // built so an oversized staging raises ResourceExhausted instead of
    // OOMing (transient: released once the stage completes; the gbtl ops
    // that consume the staged copy charge their own buffers).
    gbtl::detail::ScopedMemCharge charge(
        src.nrows() * sizeof(typename Matrix<double>::Row) +
        src.nvals() * sizeof(std::pair<gbtl::IndexType, double>));
    Matrix<double> out(src.nrows(), src.ncols());
    typename Matrix<double>::Row row;
    for (gbtl::IndexType i = 0; i < src.nrows(); ++i) {
      gbtl::detail::pool_checkpoint();
      const auto& r = src.row(i);
      if (r.empty()) continue;
      row.clear();
      row.reserve(r.size());
      for (const auto& [j, v] : r) row.emplace_back(j, static_cast<double>(v));
      out.setRow(i, std::move(row));
      row = {};
    }
    return out;
  });
}

Vector<double> stage_vector(const void* p, DType dt) {
  return visit_dtype(dt, [&](auto tag) {
    using T = typename decltype(tag)::type;
    const auto& src = *static_cast<const Vector<T>*>(p);
    gbtl::detail::ScopedMemCharge charge(src.size() * sizeof(double));
    Vector<double> out(src.size());
    for (gbtl::IndexType i = 0; i < src.size(); ++i) {
      if (src.has_unchecked(i)) {
        out.set_unchecked(i, static_cast<double>(src.value_unchecked(i)));
      }
    }
    return out;
  });
}

void unstage_matrix(void* p, DType dt, const Matrix<double>& m) {
  visit_dtype(dt, [&](auto tag) {
    using T = typename decltype(tag)::type;
    auto& dst = *static_cast<Matrix<T>*>(p);
    dst.clear();
    typename Matrix<T>::Row row;
    for (gbtl::IndexType i = 0; i < m.nrows(); ++i) {
      const auto& r = m.row(i);
      if (r.empty()) continue;
      row.clear();
      row.reserve(r.size());
      for (const auto& [j, v] : r) row.emplace_back(j, static_cast<T>(v));
      dst.setRow(i, std::move(row));
      row = {};
    }
  });
}

void unstage_vector(void* p, DType dt, const Vector<double>& v) {
  visit_dtype(dt, [&](auto tag) {
    using T = typename decltype(tag)::type;
    auto& dst = *static_cast<Vector<T>*>(p);
    dst.clear();
    for (gbtl::IndexType i = 0; i < v.size(); ++i) {
      if (v.has_unchecked(i)) {
        dst.set_unchecked(i, static_cast<T>(v.value_unchecked(i)));
      }
    }
  });
}

// --- runtime operators -------------------------------------------------------

struct RtBinary {
  BinaryOpName op;
  double operator()(double a, double b) const {
    switch (op) {
      case BinaryOpName::kLogicalOr:
        return static_cast<double>((a != 0.0) || (b != 0.0));
      case BinaryOpName::kLogicalAnd:
        return static_cast<double>((a != 0.0) && (b != 0.0));
      case BinaryOpName::kLogicalXor:
        return static_cast<double>((a != 0.0) != (b != 0.0));
      case BinaryOpName::kEqual:
        return static_cast<double>(a == b);
      case BinaryOpName::kNotEqual:
        return static_cast<double>(a != b);
      case BinaryOpName::kGreaterThan:
        return static_cast<double>(a > b);
      case BinaryOpName::kLessThan:
        return static_cast<double>(a < b);
      case BinaryOpName::kGreaterEqual:
        return static_cast<double>(a >= b);
      case BinaryOpName::kLessEqual:
        return static_cast<double>(a <= b);
      case BinaryOpName::kTimes:
        return a * b;
      case BinaryOpName::kDiv:
        return a / b;
      case BinaryOpName::kPlus:
        return a + b;
      case BinaryOpName::kMinus:
        return a - b;
      case BinaryOpName::kMin:
        return a < b ? a : b;
      case BinaryOpName::kMax:
        return a > b ? a : b;
      case BinaryOpName::kFirst:
        return a;
      case BinaryOpName::kSecond:
        return b;
    }
    throw std::logic_error("interp: corrupt binary op");
  }
};

struct RtUnary {
  const UnaryOp* f;
  double bound;
  double operator()(double x) const {
    if (f->is_bound()) return RtBinary{f->bound_op()}(x, bound);
    switch (f->unary_name()) {
      case UnaryOpName::kIdentity:
        return x;
      case UnaryOpName::kAdditiveInverse:
        return -x;
      case UnaryOpName::kMultiplicativeInverse:
        return 1.0 / x;
      case UnaryOpName::kLogicalNot:
        return static_cast<double>(x == 0.0);
    }
    throw std::logic_error("interp: corrupt unary op");
  }
};

struct RtSemiring {
  using ScalarType = double;
  RtBinary add_op;
  RtBinary mult_op;
  double add(double a, double b) const { return add_op(a, b); }
  double mult(double a, double b) const { return mult_op(a, b); }
};

double identity_value(const MonoidIdentity& id) {
  switch (id.kind()) {
    case MonoidIdentity::Kind::kMaxLimit:
      return std::numeric_limits<double>::max();
    case MonoidIdentity::Kind::kLowestLimit:
      return std::numeric_limits<double>::lowest();
    case MonoidIdentity::Kind::kValue:
      return id.value().to_double();
  }
  throw std::logic_error("interp: corrupt identity kind");
}

// --- runtime wrapper dispatch -------------------------------------------------

template <typename F>
decltype(auto) rt_mask_m(MaskKind mk, const void* mask, F&& f) {
  switch (mk) {
    case MaskKind::kNone:
      return f(gbtl::NoMask{});
    case MaskKind::kMatrix:
      return f(*static_cast<const Matrix<bool>*>(mask));
    case MaskKind::kMatrixComp:
      return f(gbtl::complement(*static_cast<const Matrix<bool>*>(mask)));
    default:
      throw std::logic_error("interp: vector mask on matrix op");
  }
}

template <typename F>
decltype(auto) rt_mask_v(MaskKind mk, const void* mask, F&& f) {
  switch (mk) {
    case MaskKind::kNone:
      return f(gbtl::NoMask{});
    case MaskKind::kVector:
      return f(*static_cast<const Vector<bool>*>(mask));
    case MaskKind::kVectorComp:
      return f(gbtl::complement(*static_cast<const Vector<bool>*>(mask)));
    default:
      throw std::logic_error("interp: matrix mask on vector op");
  }
}

template <typename F>
decltype(auto) rt_accum(const std::optional<BinaryOp>& acc, F&& f) {
  if (acc) return f(RtBinary{acc->name()});
  return f(gbtl::NoAccumulate{});
}

template <typename F>
decltype(auto) rt_trans(bool transposed, const Matrix<double>& m, F&& f) {
  if (transposed) return f(gbtl::transpose(m));
  return f(m);
}

template <typename F>
decltype(auto) rt_indices(const gbtl::IndexArray* idx, F&& f) {
  if (idx == nullptr) return f(gbtl::AllIndices{});
  return f(*idx);
}

// --- per-func execution -------------------------------------------------------

void exec(const KernelArgs* args) {
  const OpRequest& req = *args->request;
  if (req.chain) {
    throw NoKernelError(
        "pygb: fused chains are compiled units and require the JIT backend");
  }
  if (req.has_user_op()) {
    throw NoKernelError(
        "pygb: user-defined operators are C++ snippets and require the JIT "
        "backend (PYGB_JIT_MODE=jit or auto with a compiler available)");
  }
  const std::string& f = req.func;
  const auto outp = args->replace ? gbtl::OutputControl::kReplace
                                  : gbtl::OutputControl::kMerge;

  if (f == func::kMxM || f == func::kEWiseAddMM || f == func::kEWiseMultMM) {
    auto a = stage_matrix(args->a, *req.a);
    auto b = stage_matrix(args->b, *req.b);
    auto c = stage_matrix(args->c, req.c);
    rt_mask_m(req.mask, args->mask, [&](const auto& mask) {
      rt_accum(req.accum, [&](auto accum) {
        rt_trans(req.a_transposed, a, [&](const auto& av) {
          rt_trans(req.b_transposed, b, [&](const auto& bv) {
            if (f == func::kMxM) {
              RtSemiring sr{RtBinary{req.semiring->add().op().name()},
                            RtBinary{req.semiring->mult().name()}};
              gbtl::mxm(c, mask, accum, sr, av, bv, outp);
            } else if (f == func::kEWiseAddMM) {
              gbtl::eWiseAdd(c, mask, accum, RtBinary{req.binary_op->name()},
                             av, bv, outp);
            } else {
              gbtl::eWiseMult(c, mask, accum,
                              RtBinary{req.binary_op->name()}, av, bv, outp);
            }
          });
        });
      });
    });
    unstage_matrix(args->c, req.c, c);
    return;
  }

  if (f == func::kMxV || f == func::kVxM) {
    auto c = stage_vector(args->c, req.c);
    RtSemiring sr{RtBinary{req.semiring->add().op().name()},
                  RtBinary{req.semiring->mult().name()}};
    rt_mask_v(req.mask, args->mask, [&](const auto& mask) {
      rt_accum(req.accum, [&](auto accum) {
        if (f == func::kMxV) {
          auto a = stage_matrix(args->a, *req.a);
          auto u = stage_vector(args->b, *req.b);
          rt_trans(req.a_transposed, a, [&](const auto& av) {
            gbtl::mxv(c, mask, accum, sr, av, u, outp);
          });
        } else {
          auto u = stage_vector(args->a, *req.a);
          auto b = stage_matrix(args->b, *req.b);
          rt_trans(req.b_transposed, b, [&](const auto& bv) {
            gbtl::vxm(c, mask, accum, sr, u, bv, outp);
          });
        }
      });
    });
    unstage_vector(args->c, req.c, c);
    return;
  }

  if (f == func::kEWiseAddVV || f == func::kEWiseMultVV) {
    auto u = stage_vector(args->a, *req.a);
    auto v = stage_vector(args->b, *req.b);
    auto c = stage_vector(args->c, req.c);
    rt_mask_v(req.mask, args->mask, [&](const auto& mask) {
      rt_accum(req.accum, [&](auto accum) {
        if (f == func::kEWiseAddVV) {
          gbtl::eWiseAdd(c, mask, accum, RtBinary{req.binary_op->name()}, u,
                         v, outp);
        } else {
          gbtl::eWiseMult(c, mask, accum, RtBinary{req.binary_op->name()}, u,
                          v, outp);
        }
      });
    });
    unstage_vector(args->c, req.c, c);
    return;
  }

  if (f == func::kApplyM) {
    auto a = stage_matrix(args->a, *req.a);
    auto c = stage_matrix(args->c, req.c);
    RtUnary uop{&*req.unary_op, args->scalar_f};
    rt_mask_m(req.mask, args->mask, [&](const auto& mask) {
      rt_accum(req.accum, [&](auto accum) {
        rt_trans(req.a_transposed, a, [&](const auto& av) {
          gbtl::apply(c, mask, accum, uop, av, outp);
        });
      });
    });
    unstage_matrix(args->c, req.c, c);
    return;
  }

  if (f == func::kApplyV) {
    auto a = stage_vector(args->a, *req.a);
    auto c = stage_vector(args->c, req.c);
    RtUnary uop{&*req.unary_op, args->scalar_f};
    rt_mask_v(req.mask, args->mask, [&](const auto& mask) {
      rt_accum(req.accum, [&](auto accum) {
        gbtl::apply(c, mask, accum, uop, a, outp);
      });
    });
    unstage_vector(args->c, req.c, c);
    return;
  }

  if (f == func::kReduceMS || f == func::kReduceVS) {
    const RtBinary op{req.monoid->op().name()};
    const double id = identity_value(req.monoid->identity());
    double acc = id;
    std::size_t nvals = 0;
    if (f == func::kReduceMS) {
      auto a = stage_matrix(args->a, *req.a);
      nvals = a.nvals();
      for (gbtl::IndexType i = 0; i < a.nrows(); ++i) {
        for (const auto& [j, v] : a.row(i)) acc = op(acc, v);
      }
    } else {
      auto a = stage_vector(args->a, *req.a);
      nvals = a.nvals();
      for (gbtl::IndexType i = 0; i < a.size(); ++i) {
        if (a.has_unchecked(i)) acc = op(acc, a.value_unchecked(i));
      }
    }
    double val = args->has_scalar_seed ? args->scalar_out->f : 0.0;
    if (nvals != 0) {
      val = req.accum ? RtBinary{req.accum->name()}(val, acc) : acc;
    }
    args->scalar_out->f = val;
    args->scalar_out->i = static_cast<std::int64_t>(val);
    args->scalar_out->u = static_cast<std::uint64_t>(val);
    return;
  }

  if (f == func::kReduceMV) {
    auto a = stage_matrix(args->a, *req.a);
    auto c = stage_vector(args->c, req.c);
    struct RtMonoid {
      // Read only by gbtl::reduce's static_assert, which g++ 12 does not
      // count as a use.
      using ScalarType [[maybe_unused]] = double;
      RtBinary op;
      static double identity() { return 0.0; }  // unused by row-reduce
      double operator()(double x, double y) const { return op(x, y); }
    } monoid{RtBinary{req.monoid->op().name()}};
    rt_mask_v(req.mask, args->mask, [&](const auto& mask) {
      rt_accum(req.accum, [&](auto accum) {
        rt_trans(req.a_transposed, a, [&](const auto& av) {
          gbtl::reduce(c, mask, accum, monoid, av, outp);
        });
      });
    });
    unstage_vector(args->c, req.c, c);
    return;
  }

  if (f == func::kAssignMM || f == func::kAssignMS ||
      f == func::kExtractMM || f == func::kTransposeM) {
    auto c = stage_matrix(args->c, req.c);
    rt_mask_m(req.mask, args->mask, [&](const auto& mask) {
      rt_accum(req.accum, [&](auto accum) {
        rt_indices(args->row_indices, [&](const auto& rows) {
          rt_indices(args->col_indices, [&](const auto& cols) {
            if (f == func::kAssignMS) {
              gbtl::assign(c, mask, accum, args->scalar_f, rows, cols, outp);
            } else if (f == func::kAssignMM) {
              auto a = stage_matrix(args->a, *req.a);
              gbtl::assign(c, mask, accum, a, rows, cols, outp);
            } else if (f == func::kExtractMM) {
              auto a = stage_matrix(args->a, *req.a);
              gbtl::extract(c, mask, accum, a, rows, cols, outp);
            } else {
              auto a = stage_matrix(args->a, *req.a);
              rt_trans(req.a_transposed, a, [&](const auto& av) {
                gbtl::transpose(c, mask, accum, av, outp);
              });
            }
          });
        });
      });
    });
    unstage_matrix(args->c, req.c, c);
    return;
  }

  if (f == func::kAssignVV || f == func::kAssignVS ||
      f == func::kExtractVV) {
    auto c = stage_vector(args->c, req.c);
    rt_mask_v(req.mask, args->mask, [&](const auto& mask) {
      rt_accum(req.accum, [&](auto accum) {
        rt_indices(args->row_indices, [&](const auto& idx) {
          if (f == func::kAssignVS) {
            gbtl::assign(c, mask, accum, args->scalar_f, idx, outp);
          } else if (f == func::kAssignVV) {
            auto a = stage_vector(args->a, *req.a);
            gbtl::assign(c, mask, accum, a, idx, outp);
          } else {
            auto a = stage_vector(args->a, *req.a);
            gbtl::extract(c, mask, accum, a, idx, outp);
          }
        });
      });
    });
    unstage_vector(args->c, req.c, c);
    return;
  }

  if (f == func::kAlgoBfs) {
    auto graph = stage_matrix(args->a, *req.a);
    const auto& frontier = *static_cast<const Vector<bool>*>(args->b);
    Vector<double> levels(graph.nrows());
    const auto depth = pygb::algo::bfs(graph, frontier, levels);
    unstage_vector(args->c, req.c, levels);
    args->scalar_out->i = static_cast<std::int64_t>(depth);
    args->scalar_out->f = static_cast<double>(depth);
    args->scalar_out->u = depth;
    return;
  }
  if (f == func::kAlgoSssp) {
    auto graph = stage_matrix(args->a, *req.a);
    auto path = stage_vector(args->c, req.c);
    pygb::algo::sssp(graph, path);
    unstage_vector(args->c, req.c, path);
    return;
  }
  if (f == func::kAlgoPagerank) {
    auto graph = stage_matrix(args->a, *req.a);
    Vector<double> rank(graph.nrows());
    const unsigned iters = pygb::algo::page_rank(
        graph, rank, args->extra0, args->extra1,
        static_cast<unsigned>(args->extra2));
    unstage_vector(args->c, req.c, rank);
    args->scalar_out->i = static_cast<std::int64_t>(iters);
    return;
  }
  if (f == func::kAlgoTriangleCount) {
    auto l = stage_matrix(args->a, *req.a);
    const double count = pygb::algo::triangle_count<double>(l);
    args->scalar_out->f = count;
    args->scalar_out->i = static_cast<std::int64_t>(count);
    args->scalar_out->u = static_cast<std::uint64_t>(count);
    return;
  }

  throw std::invalid_argument("interp: unknown func '" + f + "'");
}

}  // namespace

KernelFn interp_kernel() { return &exec; }

}  // namespace pygb::jit
