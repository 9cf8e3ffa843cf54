#include "pygb/container.hpp"

#include <stdexcept>

#include "io/coo_text.hpp"
#include "io/matrix_market.hpp"
#include "pygb/eval.hpp"
#include "pygb/plan.hpp"

// Lazy-DAG discipline (docs/FUSION.md): every element-level reader is a
// materialization point (fusion::detail::sync_read flushes pending deferred
// ops that involve this container), and every element-level mutator is a
// barrier plus a snapshot point (fusion::detail::sync_write also gives any
// live deferred expression reading this container a private copy of the
// pre-mutation values). Dimension getters are exempt: deferred ops never
// resize a container.

namespace pygb {

namespace {

template <template <typename> class ContainerT, typename... Args>
std::shared_ptr<void> make_impl(DType dtype, Args&&... args) {
  return visit_dtype(dtype, [&](auto tag) -> std::shared_ptr<void> {
    using T = typename decltype(tag)::type;
    return std::shared_ptr<void>(
        new ContainerT<T>(std::forward<Args>(args)...),
        [](void* p) { delete static_cast<ContainerT<T>*>(p); });
  });
}

}  // namespace

// ---------------------------------------------------------------------------
// Matrix
// ---------------------------------------------------------------------------

Matrix::Matrix(gbtl::IndexType nrows, gbtl::IndexType ncols, DType dtype)
    : dtype_(dtype), impl_(make_impl<gbtl::Matrix>(dtype, nrows, ncols)) {}

Matrix::Matrix(std::initializer_list<std::initializer_list<double>> dense,
               DType dtype)
    : Matrix(dense.size(), dense.size() ? dense.begin()->size() : 0, dtype) {
  gbtl::IndexType i = 0;
  for (const auto& row : dense) {
    if (row.size() != ncols()) {
      throw gbtl::DimensionException("ragged dense init data");
    }
    gbtl::IndexType j = 0;
    for (double v : row) {
      if (v != 0.0) set(i, j, Scalar(v, dtype));
      ++j;
    }
    ++i;
  }
}

Matrix Matrix::from_coo(const io::Coo& coo, DType dtype) {
  Matrix m(coo.nrows, coo.ncols, dtype);
  visit_dtype(dtype, [&](auto tag) {
    using T = typename decltype(tag)::type;
    io::build_from(m.typed<T>(), coo);
  });
  return m;
}

Matrix Matrix::from_edge_list(const gen::EdgeList& el, DType dtype) {
  Matrix m(el.num_vertices, el.num_vertices, dtype);
  visit_dtype(dtype, [&](auto tag) {
    using T = typename decltype(tag)::type;
    m.typed<T>() = gen::to_adjacency<T>(el);
  });
  return m;
}

Matrix Matrix::from_file(const std::string& path, DType dtype) {
  const bool is_mm = path.size() >= 4 &&
                     path.compare(path.size() - 4, 4, ".mtx") == 0;
  return from_coo(is_mm ? io::read_matrix_market(path)
                        : io::read_coo_text(path),
                  dtype);
}

Matrix Matrix::from_dense(const std::vector<std::vector<double>>& dense,
                          DType dtype) {
  if (dense.empty() || dense.front().empty()) {
    throw gbtl::InvalidValueException("dense data must be non-empty");
  }
  Matrix m(dense.size(), dense.front().size(), dtype);
  for (gbtl::IndexType i = 0; i < dense.size(); ++i) {
    if (dense[i].size() != m.ncols()) {
      throw gbtl::DimensionException("ragged dense data");
    }
    for (gbtl::IndexType j = 0; j < dense[i].size(); ++j) {
      if (dense[i][j] != 0.0) m.set(i, j, Scalar(dense[i][j], dtype));
    }
  }
  return m;
}

void Matrix::check_dtype(DType dt) const {
  if (!defined()) {
    throw std::logic_error("pygb: operation on an undefined Matrix handle");
  }
  if (dt != dtype_) {
    throw std::logic_error(
        std::string("pygb: dtype mismatch: container holds ") +
        display_name(dtype_) + ", requested " + display_name(dt));
  }
}

gbtl::IndexType Matrix::nrows() const {
  return visit_dtype(dtype_, [&](auto tag) {
    using T = typename decltype(tag)::type;
    return typed<T>().nrows();
  });
}

gbtl::IndexType Matrix::ncols() const {
  return visit_dtype(dtype_, [&](auto tag) {
    using T = typename decltype(tag)::type;
    return typed<T>().ncols();
  });
}

std::size_t Matrix::nvals() const {
  fusion::detail::sync_read(raw());
  return visit_dtype(dtype_, [&](auto tag) {
    using T = typename decltype(tag)::type;
    return typed<T>().nvals();
  });
}

bool Matrix::has_element(gbtl::IndexType i, gbtl::IndexType j) const {
  fusion::detail::sync_read(raw());
  return visit_dtype(dtype_, [&](auto tag) {
    using T = typename decltype(tag)::type;
    return typed<T>().hasElement(i, j);
  });
}

Scalar Matrix::get_element(gbtl::IndexType i, gbtl::IndexType j) const {
  fusion::detail::sync_read(raw());
  return visit_dtype(dtype_, [&](auto tag) {
    using T = typename decltype(tag)::type;
    return Scalar(typed<T>().extractElement(i, j));
  });
}

double Matrix::get(gbtl::IndexType i, gbtl::IndexType j) const {
  return get_element(i, j).to_double();
}

void Matrix::set(gbtl::IndexType i, gbtl::IndexType j, Scalar v) {
  fusion::detail::sync_write(raw());
  visit_dtype(dtype_, [&](auto tag) {
    using T = typename decltype(tag)::type;
    typed<T>().setElement(i, j, v.as<T>());
  });
}

void Matrix::remove_element(gbtl::IndexType i, gbtl::IndexType j) {
  fusion::detail::sync_write(raw());
  visit_dtype(dtype_, [&](auto tag) {
    using T = typename decltype(tag)::type;
    typed<T>().removeElement(i, j);
  });
}

void Matrix::clear() {
  fusion::detail::sync_write(raw());
  visit_dtype(dtype_, [&](auto tag) {
    using T = typename decltype(tag)::type;
    typed<T>().clear();
  });
}

Matrix Matrix::dup() const {
  fusion::detail::sync_read(raw());
  Matrix out(nrows(), ncols(), dtype_);
  visit_dtype(dtype_, [&](auto tag) {
    using T = typename decltype(tag)::type;
    out.typed<T>() = typed<T>();
  });
  return out;
}

Matrix Matrix::astype(DType dtype) const {
  fusion::detail::sync_read(raw());
  if (dtype == dtype_) return dup();
  Matrix out(nrows(), ncols(), dtype);
  visit_dtype(dtype_, [&](auto src_tag) {
    using S = typename decltype(src_tag)::type;
    const auto& src = typed<S>();
    visit_dtype(dtype, [&](auto dst_tag) {
      using D = typename decltype(dst_tag)::type;
      auto& dst = out.typed<D>();
      for (gbtl::IndexType i = 0; i < src.nrows(); ++i) {
        typename gbtl::Matrix<D>::Row row;
        const auto& r = src.row(i);
        row.reserve(r.size());
        for (const auto& [j, v] : r) row.emplace_back(j, static_cast<D>(v));
        dst.setRow(i, std::move(row));
      }
    });
  });
  return out;
}

io::Coo Matrix::to_coo() const {
  fusion::detail::sync_read(raw());
  return visit_dtype(dtype_, [&](auto tag) {
    using T = typename decltype(tag)::type;
    return io::from_matrix(typed<T>());
  });
}

bool Matrix::equals(const Matrix& other) const {
  if (!defined() || !other.defined()) return defined() == other.defined();
  fusion::detail::sync_read(raw());
  fusion::detail::sync_read(other.raw());
  if (dtype_ != other.dtype_) return false;
  return visit_dtype(dtype_, [&](auto tag) {
    using T = typename decltype(tag)::type;
    return typed<T>() == other.typed<T>();
  });
}

TransposedMatrix Matrix::T() const { return TransposedMatrix(*this); }

ComplementedMatrix Matrix::operator~() const {
  return ComplementedMatrix(*this);
}

MaskedMatrix Matrix::operator[](const Matrix& mask) {
  return MaskedMatrix(*this,
                      {MatrixMaskArg::Kind::kPlain,
                       std::make_shared<const Matrix>(mask)});
}

MaskedMatrix Matrix::operator[](const ComplementedMatrix& mask) {
  return MaskedMatrix(*this,
                      {MatrixMaskArg::Kind::kComp,
                       std::make_shared<const Matrix>(mask.base())});
}

MaskedMatrix Matrix::operator[](NoneType) {
  return MaskedMatrix(*this, {});
}

SubMatrixRef Matrix::operator()(const Slice& rows, const Slice& cols) const {
  return SubMatrixRef(*this, {}, rows, cols);
}

SubMatrixRef Matrix::operator()(gbtl::IndexArray rows,
                                gbtl::IndexArray cols) const {
  return SubMatrixRef(*this, {}, std::move(rows), std::move(cols));
}

// ---------------------------------------------------------------------------
// Vector
// ---------------------------------------------------------------------------

Vector::Vector(gbtl::IndexType size, DType dtype)
    : dtype_(dtype), impl_(make_impl<gbtl::Vector>(dtype, size)) {}

Vector::Vector(std::initializer_list<double> dense, DType dtype)
    : Vector(dense.size(), dtype) {
  gbtl::IndexType i = 0;
  for (double v : dense) {
    if (v != 0.0) set(i, Scalar(v, dtype));
    ++i;
  }
}

Vector Vector::from_dense(const std::vector<double>& dense, DType dtype) {
  Vector out(dense.size(), dtype);
  for (gbtl::IndexType i = 0; i < dense.size(); ++i) {
    if (dense[i] != 0.0) out.set(i, Scalar(dense[i], dtype));
  }
  return out;
}

void Vector::check_dtype(DType dt) const {
  if (!defined()) {
    throw std::logic_error("pygb: operation on an undefined Vector handle");
  }
  if (dt != dtype_) {
    throw std::logic_error(
        std::string("pygb: dtype mismatch: container holds ") +
        display_name(dtype_) + ", requested " + display_name(dt));
  }
}

gbtl::IndexType Vector::size() const {
  return visit_dtype(dtype_, [&](auto tag) {
    using T = typename decltype(tag)::type;
    return typed<T>().size();
  });
}

std::size_t Vector::nvals() const {
  fusion::detail::sync_read(raw());
  return visit_dtype(dtype_, [&](auto tag) {
    using T = typename decltype(tag)::type;
    return typed<T>().nvals();
  });
}

bool Vector::has_element(gbtl::IndexType i) const {
  fusion::detail::sync_read(raw());
  return visit_dtype(dtype_, [&](auto tag) {
    using T = typename decltype(tag)::type;
    return typed<T>().hasElement(i);
  });
}

Scalar Vector::get_element(gbtl::IndexType i) const {
  fusion::detail::sync_read(raw());
  return visit_dtype(dtype_, [&](auto tag) {
    using T = typename decltype(tag)::type;
    return Scalar(typed<T>().extractElement(i));
  });
}

double Vector::get(gbtl::IndexType i) const {
  return get_element(i).to_double();
}

void Vector::set(gbtl::IndexType i, Scalar v) {
  fusion::detail::sync_write(raw());
  visit_dtype(dtype_, [&](auto tag) {
    using T = typename decltype(tag)::type;
    typed<T>().setElement(i, v.as<T>());
  });
}

void Vector::remove_element(gbtl::IndexType i) {
  fusion::detail::sync_write(raw());
  visit_dtype(dtype_, [&](auto tag) {
    using T = typename decltype(tag)::type;
    typed<T>().removeElement(i);
  });
}

void Vector::clear() {
  fusion::detail::sync_write(raw());
  visit_dtype(dtype_, [&](auto tag) {
    using T = typename decltype(tag)::type;
    typed<T>().clear();
  });
}

Vector Vector::dup() const {
  fusion::detail::sync_read(raw());
  Vector out(size(), dtype_);
  visit_dtype(dtype_, [&](auto tag) {
    using T = typename decltype(tag)::type;
    out.typed<T>() = typed<T>();
  });
  return out;
}

Vector Vector::astype(DType dtype) const {
  fusion::detail::sync_read(raw());
  if (dtype == dtype_) return dup();
  Vector out(size(), dtype);
  visit_dtype(dtype_, [&](auto src_tag) {
    using S = typename decltype(src_tag)::type;
    const auto& src = typed<S>();
    visit_dtype(dtype, [&](auto dst_tag) {
      using D = typename decltype(dst_tag)::type;
      auto& dst = out.typed<D>();
      for (gbtl::IndexType i = 0; i < src.size(); ++i) {
        if (src.has_unchecked(i)) {
          dst.set_unchecked(i, static_cast<D>(src.value_unchecked(i)));
        }
      }
    });
  });
  return out;
}

bool Vector::equals(const Vector& other) const {
  if (!defined() || !other.defined()) return defined() == other.defined();
  fusion::detail::sync_read(raw());
  fusion::detail::sync_read(other.raw());
  if (dtype_ != other.dtype_) return false;
  return visit_dtype(dtype_, [&](auto tag) {
    using T = typename decltype(tag)::type;
    return typed<T>() == other.typed<T>();
  });
}

ComplementedVector Vector::operator~() const {
  return ComplementedVector(*this);
}

MaskedVector Vector::operator[](const Vector& mask) {
  return MaskedVector(*this,
                      {VectorMaskArg::Kind::kPlain,
                       std::make_shared<const Vector>(mask)});
}

MaskedVector Vector::operator[](const ComplementedVector& mask) {
  return MaskedVector(*this,
                      {VectorMaskArg::Kind::kComp,
                       std::make_shared<const Vector>(mask.base())});
}

MaskedVector Vector::operator[](NoneType) {
  return MaskedVector(*this, {});
}

SubVectorRef Vector::operator[](const Slice& idx) const {
  return SubVectorRef(*this, {}, idx);
}

SubVectorRef Vector::operator[](gbtl::IndexArray idx) const {
  return SubVectorRef(*this, {}, std::move(idx));
}

}  // namespace pygb
