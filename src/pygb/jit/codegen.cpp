#include "pygb/jit/codegen.hpp"

#include <algorithm>
#include <cstdio>
#include <sstream>
#include <stdexcept>

#include "pygb/jit/cache.hpp"

namespace pygb::jit {

namespace {

std::string ct(const OpRequest& r) { return cpp_name(r.c); }
std::string at(const OpRequest& r) {
  if (!r.a) throw std::invalid_argument("codegen: request lacks A dtype");
  return cpp_name(*r.a);
}
std::string bt(const OpRequest& r) {
  if (!r.b) throw std::invalid_argument("codegen: request lacks B dtype");
  return cpp_name(*r.b);
}

std::string binop_tpl(BinaryOpName op) {
  return std::string("gbtl::") + to_string(op);
}

std::string bool_lit(bool b) { return b ? "true" : "false"; }

/// Escape an arbitrary string into a C++ string literal body.
std::string cpp_string_escaped(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (char c : s) {
    if (c == '\\' || c == '"') {
      out += '\\';
      out += c;
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out += c;
    }
  }
  return out;
}

/// The exported verification symbol (empty stamp → none, for unit tests
/// exercising bare codegen). The payload carries the kStampMarker prefix
/// so load_kernel can find it by scanning the file before dlopen.
std::string stamp_symbol_def(const std::string& stamp) {
  if (stamp.empty()) return {};
  return "\nextern \"C\" const char pygb_module_stamp[] = \"" +
         cpp_string_escaped(std::string(kStampMarker) + stamp) + "\";\n";
}

std::uint64_t fnv1a_hash(const std::string& s) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::string hex64(std::uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

/// 1-based physical line number of the NEXT character appended to src.
unsigned next_line(const std::string& src) {
  return static_cast<unsigned>(
             std::count(src.begin(), src.end(), '\n')) +
         1;
}

/// Wrap the kernel statements in the shared module shell: entry guard,
/// `#line` mapping onto the virtual DSL file, the provenance symbols the
/// loader's module map reads after dlopen, and the verification stamp.
std::string compose_module(const char* header, const std::string& func,
                           const std::string& key, const std::string& aux,
                           const std::string& body, const std::string& stamp,
                           SourceInfo* info) {
  const std::uint64_t khash = fnv1a_hash(key);
  const std::string dsl_file = "pygb:dsl:" + func + ":" + hex64(khash);

  std::string src;
  src.reserve(aux.size() + body.size() + 1024);
  src += "// Generated by pygb::jit for key:\n//   " + key + "\n";
  src += std::string("#include \"") + header + "\"\n\n";
  src += aux;
  // The provenance symbols are writable data on purpose: the loader and
  // the entry guard read them, and in the data page they share the page
  // the dynamic linker already dirtied, so the module's read-only pages
  // can be released after loading (load_kernel).
  src += "\nextern \"C\" char pygb_module_func[];\n";
  src += "\nextern \"C\" void pygb_kernel(const pygb::jit::KernelArgs* "
         "args) {\n";
  src += "  pygb::jit::kernel_entry_guard(pygb_module_func, " +
         hex64(khash) + "ULL);\n";
  // Map the kernel statements onto the virtual DSL file (D2X-style), so
  // DWARF line info — and therefore debuggers, sanitizers, and core dumps
  // — names the originating DSL expression rather than a temp file.
  src += "#line 1 \"" + dsl_file + "\"\n";
  const unsigned kernel_line = next_line(src);
  src += body;
  src += "#line " + std::to_string(next_line(src) + 1) +
         " \"pygb-generated.cpp\"\n";
  src += "}\n";
  src += "\nextern \"C\" char pygb_module_key[] = \"" +
         cpp_string_escaped(key) + "\";\n";
  src += "extern \"C\" char pygb_module_func[] = \"" +
         cpp_string_escaped(func) + "\";\n";
  src += "extern \"C\" unsigned pygb_module_kernel_line = " +
         std::to_string(kernel_line) + ";\n";
  src += stamp_symbol_def(stamp);

  if (info != nullptr) {
    info->func = func;
    info->key = key;
    info->key_hash = khash;
    info->kernel_line = kernel_line;
    info->dsl_file = dsl_file;
  }
  return src;
}

std::string mask_kind_expr(MaskKind mk) {
  switch (mk) {
    case MaskKind::kNone:
      return "pygb::jit::MaskKind::kNone";
    case MaskKind::kMatrix:
      return "pygb::jit::MaskKind::kMatrix";
    case MaskKind::kMatrixComp:
      return "pygb::jit::MaskKind::kMatrixComp";
    case MaskKind::kVector:
      return "pygb::jit::MaskKind::kVector";
    case MaskKind::kVectorComp:
      return "pygb::jit::MaskKind::kVectorComp";
  }
  throw std::invalid_argument("codegen: corrupt mask kind");
}

/// Identity provider: named limits map to the shared providers; explicit
/// values get a module-local provider emitting the literal. `aux` collects
/// module-local struct definitions.
std::string identity_provider(const MonoidIdentity& id, std::ostringstream& aux,
                              int& aux_counter) {
  switch (id.kind()) {
    case MonoidIdentity::Kind::kMaxLimit:
      return "pygb::jit::IdMaxLimit";
    case MonoidIdentity::Kind::kLowestLimit:
      return "pygb::jit::IdLowestLimit";
    case MonoidIdentity::Kind::kValue: {
      const Scalar& v = id.value();
      const std::string name = "ModuleId" + std::to_string(aux_counter++);
      aux << "struct " << name << " {\n"
          << "  template <typename T>\n"
          << "  static constexpr T value() {\n"
          << "    return static_cast<T>(";
      if (is_floating(v.dtype())) {
        aux << v.to_double();
      } else {
        aux << v.to_int64() << "LL";
      }
      aux << ");\n  }\n};\n";
      return name;
    }
  }
  throw std::invalid_argument("codegen: corrupt identity kind");
}

std::string semiring_type(const OpRequest& r, std::ostringstream& aux,
                          int& aux_counter) {
  if (!r.semiring) throw std::invalid_argument("codegen: missing semiring");
  const Semiring& sr = *r.semiring;
  const std::string id =
      identity_provider(sr.add().identity(), aux, aux_counter);
  std::ostringstream os;
  os << "pygb::jit::GenericSemiring<" << at(r) << ", " << bt(r) << ", "
     << ct(r) << ", " << binop_tpl(sr.add().op().name()) << ", " << id
     << ", " << binop_tpl(sr.mult().name()) << ">";
  return os.str();
}

std::string monoid_type(const OpRequest& r, std::ostringstream& aux,
                        int& aux_counter) {
  if (!r.monoid) throw std::invalid_argument("codegen: missing monoid");
  const std::string id =
      identity_provider(r.monoid->identity(), aux, aux_counter);
  std::ostringstream os;
  os << "pygb::jit::GenericMonoid<" << ct(r) << ", "
     << binop_tpl(r.monoid->op().name()) << ", " << id << ">";
  return os.str();
}

std::string accum_type(const OpRequest& r) {
  if (!r.accum) return "gbtl::NoAccumulate";
  return binop_tpl(r.accum->name()) + "<" + ct(r) + ">";
}

/// Emit the definition of a user-defined binary operator struct (§VIII)
/// and return its name. The expression sees `a`, `b`, and the output
/// element type `C`.
std::string user_binary_struct(const UserBinaryOp& op,
                               std::ostringstream& aux) {
  const std::string name = "UserBinary_" + op.name();
  aux << "template <typename A, typename B, typename C>\n"
      << "struct " << name << " {\n"
      << "  constexpr C operator()(const A& a, const B& b) const {\n"
      << "    return static_cast<C>((" << op.expr() << "));\n"
      << "  }\n};\n";
  return name;
}

/// Same for a unary operator; the expression sees `a` and `C`.
std::string user_unary_struct(const UserUnaryOp& op,
                              std::ostringstream& aux) {
  const std::string name = "UserUnary_" + op.name();
  aux << "template <typename A, typename C>\n"
      << "struct " << name << " {\n"
      << "  constexpr C operator()(const A& a) const {\n"
      << "    return static_cast<C>((" << op.expr() << "));\n"
      << "  }\n};\n";
  return name;
}

std::string unary_maker(const OpRequest& r, std::ostringstream& aux) {
  if (r.user_unary) {
    return "pygb::jit::PlainUnary<" + user_unary_struct(*r.user_unary, aux) +
           ">";
  }
  if (!r.unary_op) throw std::invalid_argument("codegen: missing unary op");
  const UnaryOp& f = *r.unary_op;
  if (f.is_bound()) {
    return "pygb::jit::BoundSecond<" + binop_tpl(f.bound_op()) + ">";
  }
  return std::string("pygb::jit::PlainUnary<gbtl::") +
         to_string(f.unary_name()) + ">";
}

/// The gbtl::core::IndexOp of an assign/extract/transpose func; "" for
/// every other func.
std::string index_op(const std::string& f) {
  if (f == func::kTransposeM) return "gbtl::core::IndexOp::kTranspose";
  if (f == func::kExtractMM || f == func::kExtractVV) {
    return "gbtl::core::IndexOp::kExtract";
  }
  return f.starts_with("assign") ? "gbtl::core::IndexOp::kAssign" : "";
}

std::string ewise_op_tpl(const OpRequest& r, std::ostringstream& aux) {
  if (r.user_binary) return user_binary_struct(*r.user_binary, aux);
  if (!r.binary_op) throw std::invalid_argument("codegen: missing binary op");
  return binop_tpl(r.binary_op->name());
}

// ---------------------------------------------------------------------------
// Fused-chain generation (§V's planned lazy-evaluation feature): one
// translation unit executing every recorded statement back to back, with
// intermediate results flowing through the bound containers — no dispatch
// between steps.
// ---------------------------------------------------------------------------

std::string chain_semiring_type(const ChainStatement& st,
                                const FusedChainDesc& chain,
                                std::ostringstream& aux, int& aux_counter) {
  const std::string at = cpp_name(chain.params[st.a].dtype);
  const std::string btn = cpp_name(chain.params[st.b].dtype);
  const std::string ctn = cpp_name(chain.params[st.target].dtype);
  const std::string id =
      identity_provider(st.semiring->add().identity(), aux, aux_counter);
  return "pygb::jit::GenericSemiring<" + at + ", " + btn + ", " + ctn +
         ", " + binop_tpl(st.semiring->add().op().name()) + ", " + id +
         ", " + binop_tpl(st.semiring->mult().name()) + ">";
}

std::string chain_accum_expr(const ChainStatement& st,
                             const FusedChainDesc& chain) {
  if (!st.accum) return "gbtl::NoAccumulate{}";
  return binop_tpl(st.accum->name()) + "<" +
         cpp_name(chain.params[st.target].dtype) + ">{}";
}

std::string chain_operand(const FusedChainDesc& chain, int idx,
                          bool transposed) {
  std::string ref = "p" + std::to_string(idx);
  (void)chain;
  return transposed ? "gbtl::transpose(" + ref + ")" : ref;
}

/// The generated module's first statement: bake the request's backend in
/// as a thread-local scope so a cached module always runs the backend it
/// was keyed under — whatever PYGB_BACKEND says in the loading process.
/// (Modules never read the environment; see gbtl/detail/backend.hpp.)
std::string baked_backend_scope(gbtl::detail::Backend backend) {
  return std::string(
             "  gbtl::detail::BackendScope _pygb_backend("
             "gbtl::detail::Backend::") +
         (backend == gbtl::detail::Backend::kSimd ? "kSimd" : "kScalar") +
         ");\n";
}

/// The backend a thin entry runs, baked in as its last template argument
/// (the driver reads it instead of a BackendScope).
std::string baked_backend_arg(gbtl::detail::Backend backend) {
  return backend == gbtl::detail::Backend::kSimd
             ? "gbtl::CallBackend::kSimd"
             : "gbtl::CallBackend::kScalar";
}

std::string generate_chain_source(const FusedChainDesc& chain,
                                  gbtl::detail::Backend backend,
                                  const std::string& key,
                                  const std::string& stamp,
                                  SourceInfo* info) {
  std::ostringstream aux;
  std::ostringstream body;
  int aux_counter = 0;

  body << baked_backend_scope(backend);

  // Parameter bindings.
  for (std::size_t i = 0; i < chain.params.size(); ++i) {
    const ChainParam& p = chain.params[i];
    const std::string idx = std::to_string(i);
    switch (p.kind) {
      case ChainParam::Kind::kMatrix:
        body << "  auto& p" << idx << " = *static_cast<gbtl::Matrix<"
             << cpp_name(p.dtype)
             << ">*>(const_cast<void*>(args->chain_ptrs[" << idx
             << "]));  // " << p.name << "\n";
        break;
      case ChainParam::Kind::kVector:
        body << "  auto& p" << idx << " = *static_cast<gbtl::Vector<"
             << cpp_name(p.dtype)
             << ">*>(const_cast<void*>(args->chain_ptrs[" << idx
             << "]));  // " << p.name << "\n";
        break;
      case ChainParam::Kind::kScalar:
        // Scalars travel over the double channel but are narrowed to the
        // declared dtype before use, matching the eager kernels' cast.
        body << "  const " << cpp_name(p.dtype) << " s" << idx
             << " = static_cast<" << cpp_name(p.dtype)
             << ">(args->chain_scalars[" << idx << "]);  // " << p.name
             << "\n";
        break;
    }
  }
  body << "\n";

  for (const ChainStatement& st : chain.statements) {
    const std::string tgt = "p" + std::to_string(st.target);
    const std::string ctn =
        st.target >= 0 ? cpp_name(chain.params[st.target].dtype) : "double";
    const std::string acc = chain_accum_expr(st, chain);

    if (st.func == func::kVxM) {
      body << "  gbtl::vxm(" << tgt << ", gbtl::NoMask{}, " << acc << ", "
           << chain_semiring_type(st, chain, aux, aux_counter) << "{}, "
           << chain_operand(chain, st.a, false) << ", "
           << chain_operand(chain, st.b, st.b_transposed) << ");\n";
    } else if (st.func == func::kMxV) {
      body << "  gbtl::mxv(" << tgt << ", gbtl::NoMask{}, " << acc << ", "
           << chain_semiring_type(st, chain, aux, aux_counter) << "{}, "
           << chain_operand(chain, st.a, st.a_transposed) << ", "
           << chain_operand(chain, st.b, false) << ");\n";
    } else if (st.func == func::kMxM) {
      body << "  gbtl::mxm(" << tgt << ", gbtl::NoMask{}, " << acc << ", "
           << chain_semiring_type(st, chain, aux, aux_counter) << "{}, "
           << chain_operand(chain, st.a, st.a_transposed) << ", "
           << chain_operand(chain, st.b, st.b_transposed) << ");\n";
    } else if (st.func == func::kEWiseAddVV || st.func == func::kEWiseAddMM ||
               st.func == func::kEWiseMultVV ||
               st.func == func::kEWiseMultMM) {
      const bool is_add =
          st.func == func::kEWiseAddVV || st.func == func::kEWiseAddMM;
      const std::string at = cpp_name(chain.params[st.a].dtype);
      const std::string btn = cpp_name(chain.params[st.b].dtype);
      body << "  gbtl::" << (is_add ? "eWiseAdd" : "eWiseMult") << "("
           << tgt << ", gbtl::NoMask{}, " << acc << ", "
           << binop_tpl(st.binary_op->name()) << "<" << at << ", " << btn
           << ", " << ctn << ">{}, " << chain_operand(chain, st.a, false)
           << ", " << chain_operand(chain, st.b, false) << ");\n";
    } else if (st.func == func::kApplyV || st.func == func::kApplyM) {
      const std::string at = cpp_name(chain.params[st.a].dtype);
      std::string f;
      if (st.bound_op) {
        f = "gbtl::BinaryOpBind2nd<" + ctn + ", " +
            binop_tpl(st.bound_op->name()) + "<" + ctn +
            ">>(static_cast<" + ctn + ">(s" + std::to_string(st.scalar) +
            "))";
      } else {
        f = std::string("gbtl::") + to_string(*st.plain_unary) + "<" + at +
            ", " + ctn + ">{}";
      }
      body << "  gbtl::apply(" << tgt << ", gbtl::NoMask{}, " << acc
           << ", " << f << ", " << chain_operand(chain, st.a, false)
           << ");\n";
    } else if (st.func == func::kAssignVS) {
      body << "  gbtl::assign(" << tgt << ", gbtl::NoMask{}, " << acc
           << ", static_cast<" << ctn << ">(s" << std::to_string(st.scalar)
           << "), gbtl::AllIndices{});\n";
    } else if (st.func == func::kReduceVS) {
      const std::string at = cpp_name(chain.params[st.a].dtype);
      const std::string id =
          identity_provider(st.monoid->identity(), aux, aux_counter);
      body << "  {\n    " << at << " acc_{};\n"
           << "    gbtl::reduce(acc_, gbtl::NoAccumulate{}, "
           << "pygb::jit::GenericMonoid<" << at << ", "
           << binop_tpl(st.monoid->op().name()) << ", " << id << ">{}, "
           << chain_operand(chain, st.a, false) << ");\n"
           << "    pygb::jit::write_scalar_out(args, acc_);\n  }\n";
    } else {
      throw std::invalid_argument("codegen: unsupported chain statement '" +
                                  st.func + "'");
    }
  }

  return compose_module(kGlueHeader, func::kFusedChain, key, aux.str(),
                        body.str(), stamp, info);
}

}  // namespace

const char* module_header(const OpRequest& req) {
  if (req.chain || req.func.starts_with("algo_")) return kGlueHeader;
  return kThinHeader;
}

std::string generate_source(const OpRequest& req, const std::string& stamp,
                            SourceInfo* info) {
  if (req.chain) {
    return generate_chain_source(*req.chain, req.backend, req.key(), stamp,
                                 info);
  }
  std::ostringstream aux;   // module-local helper structs
  std::ostringstream inst;  // the entry's instantiation expression
  int aux_counter = 0;
  const std::string mk = mask_kind_expr(req.mask);
  const std::string acc = accum_type(req);

  const std::string& f = req.func;
  const std::string be = baked_backend_arg(req.backend);
  if (f == func::kMxM) {
    inst << "pygb::jit::mxm_entry<" << ct(req) << ", " << at(req) << ", "
         << bt(req) << ", " << semiring_type(req, aux, aux_counter) << ", "
         << bool_lit(req.a_transposed) << ", " << bool_lit(req.b_transposed)
         << ", " << mk << ", " << acc << ", " << be << ">";
  } else if (f == func::kMxV) {
    inst << "pygb::jit::mxv_entry<" << ct(req) << ", " << at(req) << ", "
         << bt(req) << ", " << semiring_type(req, aux, aux_counter) << ", "
         << bool_lit(req.a_transposed) << ", " << mk << ", " << acc << ", "
         << be << ">";
  } else if (f == func::kVxM) {
    inst << "pygb::jit::vxm_entry<" << ct(req) << ", " << at(req) << ", "
         << bt(req) << ", " << semiring_type(req, aux, aux_counter) << ", "
         << bool_lit(req.b_transposed) << ", " << mk << ", " << acc << ", "
         << be << ">";
  } else if (f == func::kEWiseAddMM || f == func::kEWiseMultMM) {
    inst << "pygb::jit::ewise_mm_entry<" << ct(req) << ", " << at(req)
         << ", " << bt(req) << ", " << ewise_op_tpl(req, aux) << ", "
         << bool_lit(f == func::kEWiseAddMM) << ", "
         << bool_lit(req.a_transposed) << ", " << bool_lit(req.b_transposed)
         << ", " << mk << ", " << acc << ", " << be << ">";
  } else if (f == func::kEWiseAddVV || f == func::kEWiseMultVV) {
    inst << "pygb::jit::ewise_vv_entry<" << ct(req) << ", " << at(req)
         << ", " << bt(req) << ", " << ewise_op_tpl(req, aux) << ", "
         << bool_lit(f == func::kEWiseAddVV) << ", " << mk << ", " << acc
         << ", " << be << ">";
  } else if (f == func::kApplyM) {
    inst << "pygb::jit::apply_m_entry<" << ct(req) << ", " << at(req) << ", "
         << unary_maker(req, aux) << ", " << bool_lit(req.a_transposed) << ", "
         << mk << ", " << acc << ", " << be << ">";
  } else if (f == func::kApplyV) {
    inst << "pygb::jit::apply_v_entry<" << ct(req) << ", " << at(req) << ", "
         << unary_maker(req, aux) << ", " << mk << ", " << acc << ", " << be
         << ">";
  } else if (f == func::kReduceMS) {
    inst << "pygb::jit::reduce_m_s_entry<" << ct(req) << ", " << at(req)
         << ", " << monoid_type(req, aux, aux_counter) << ", "
         << bool_lit(req.a_transposed) << ", " << acc << ", " << be << ">";
  } else if (f == func::kReduceVS) {
    inst << "pygb::jit::reduce_v_s_entry<" << ct(req) << ", " << at(req)
         << ", " << monoid_type(req, aux, aux_counter) << ", " << acc << ", "
         << be << ">";
  } else if (f == func::kReduceMV) {
    inst << "pygb::jit::reduce_m_v_entry<" << ct(req) << ", " << at(req)
         << ", " << monoid_type(req, aux, aux_counter) << ", "
         << bool_lit(req.a_transposed) << ", " << mk << ", " << acc << ", "
         << be << ">";
  } else if (const std::string op = index_op(f); !op.empty()) {
    const bool vector = f == func::kAssignVV || f == func::kAssignVS ||
                        f == func::kExtractVV;
    const bool scalar = f == func::kAssignMS || f == func::kAssignVS;
    inst << "pygb::jit::index_entry<" << op << ", " << bool_lit(!vector)
         << ", " << ct(req) << ", " << (scalar ? "void" : at(req)) << ", "
         << bool_lit(req.a_transposed) << ", " << mk << ", " << acc << ">";
  } else if (f == func::kAlgoBfs) {
    inst << "pygb::jit::run_algo_bfs<" << ct(req) << ", " << at(req) << ">";
  } else if (f == func::kAlgoSssp) {
    inst << "pygb::jit::run_algo_sssp<" << ct(req) << ", " << at(req) << ">";
  } else if (f == func::kAlgoPagerank) {
    inst << "pygb::jit::run_algo_pagerank<" << ct(req) << ", " << at(req)
         << ">";
  } else if (f == func::kAlgoTriangleCount) {
    inst << "pygb::jit::run_algo_tc<" << ct(req) << ", " << at(req) << ">";
  } else if (f == func::kAlgoConnectedComponents) {
    inst << "pygb::jit::run_algo_cc<" << ct(req) << ", " << at(req) << ">";
  } else {
    throw std::invalid_argument("codegen: unknown func '" + f + "'");
  }

  // Thin entries carry the backend as a template argument (the
  // assign/extract/transpose drivers have no backend-specific path); the
  // algo_* kernels run under a baked BackendScope.
  const char* header = module_header(req);
  const std::string call = "  " + inst.str() + "(args);\n";
  return compose_module(
      header, f, req.key(), aux.str(),
      header == kThinHeader ? call : baked_backend_scope(req.backend) + call,
      stamp, info);
}

}  // namespace pygb::jit
