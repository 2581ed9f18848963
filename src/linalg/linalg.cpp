// Anchor translation unit for tcu_linalg: explicit instantiations of the
// template algorithms for the scalar types exercised by tests, benches and
// examples.

#include <complex>
#include <cstdint>

#include "linalg/dense.hpp"
#include "linalg/gauss.hpp"
#include "linalg/sparse.hpp"
#include "linalg/strassen.hpp"

namespace tcu::linalg {

template Matrix<double> matmul_naive<double>(ConstMatrixView<double>,
                                             ConstMatrixView<double>,
                                             Counters&);
template Matrix<std::int64_t> matmul_naive<std::int64_t>(
    ConstMatrixView<std::int64_t>, ConstMatrixView<std::int64_t>, Counters&);
template Matrix<std::complex<double>> matmul_naive<std::complex<double>>(
    ConstMatrixView<std::complex<double>>,
    ConstMatrixView<std::complex<double>>, Counters&);

template void matmul_tcu_into<double>(Device<double>&, InOperand<double>,
                                      InOperand<double>, OutOperand<double>);
template void matmul_tcu_into<std::int64_t>(Device<std::int64_t>&,
                                            InOperand<std::int64_t>,
                                            InOperand<std::int64_t>,
                                            OutOperand<std::int64_t>);

template Matrix<double> matmul_strassen_tcu<double>(Device<double>&,
                                                    ConstMatrixView<double>,
                                                    ConstMatrixView<double>,
                                                    StrassenOptions);

template class SparseMatrix<double>;
template class SparseMatrix<std::int64_t>;

template void ge_forward_naive<double>(MatrixView<double>, Counters&);
template void ge_forward_tcu<double>(Device<double>&, MatrixView<double>);

}  // namespace tcu::linalg
