// Reference summed-area table for the test suite: a flat, sequential
// inclusive 2-D prefix sum that the serving code's two-level
// TiledSatPlane (tensor/tiled_sat.h) and the gather fast path are
// checked against. A SatPlane of a [H, W] frame stores S[r][c] = sum of
// the frame over [0, r) x [0, c) in double precision (one zero border
// row/column), so the sum over any axis-aligned rectangle is four corner
// reads whatever its area.
//
// The build is two passes — a row-local horizontal scan, then a vertical
// accumulation down the rows — the same per-cell addition order the
// tiled plane's locals and carries reproduce, which is what lets the
// parity tests demand bit-identical prefixes.
#ifndef ONE4ALL_TESTS_SAT_ORACLE_H_
#define ONE4ALL_TESTS_SAT_ORACLE_H_

#include <cstdint>
#include <vector>

#include "core/logging.h"
#include "tensor/tensor.h"
#include "tensor/tiled_sat.h"

namespace one4all {
namespace testing {

/// \brief Inclusive 2-D prefix-sum plane of one [H, W] frame, stored as
/// (H+1) x (W+1) doubles with a zero top row and left column.
class SatPlane {
 public:
  SatPlane() = default;
  /// \brief Zero-filled plane for an `h` x `w` frame.
  SatPlane(int64_t h, int64_t w)
      : h_(h), w_(w),
        data_(static_cast<size_t>((h + 1) * (w + 1)), 0.0) {}

  int64_t height() const { return h_; }
  int64_t width() const { return w_; }

  /// \brief Raw (H+1) x (W+1) row-major plane; row stride is width()+1.
  double* data() { return data_.data(); }
  const double* data() const { return data_.data(); }
  int64_t numel() const { return static_cast<int64_t>(data_.size()); }

  /// \brief Prefix entry S[r][c] = sum over [0, r) x [0, c).
  double at(int64_t r, int64_t c) const {
    O4A_CHECK(r >= 0 && r <= h_ && c >= 0 && c <= w_);
    return data_[static_cast<size_t>(r * (w_ + 1) + c)];
  }

  /// \brief Sum of the frame over the half-open rectangle
  /// [r0, r1) x [c0, c1): four corner reads, any area.
  double RectSum(int64_t r0, int64_t c0, int64_t r1, int64_t c1) const {
    O4A_CHECK(r0 >= 0 && c0 >= 0 && r1 <= h_ && c1 <= w_);
    O4A_CHECK(r0 <= r1 && c0 <= c1);
    const int64_t stride = w_ + 1;
    const double* top = data_.data() + r0 * stride;
    const double* bottom = data_.data() + r1 * stride;
    return (bottom[c1] - bottom[c0]) - (top[c1] - top[c0]);
  }

 private:
  int64_t h_ = 0, w_ = 0;
  std::vector<double> data_;
};

/// \brief Builds the reference plane of a 2-D [H, W] frame.
inline SatPlane BuildSatPlane(const Tensor& frame) {
  O4A_CHECK_EQ(frame.ndim(), 2u);
  const int64_t h = frame.dim(0);
  const int64_t w = frame.dim(1);
  SatPlane plane(h, w);
  const int64_t stride = w + 1;
  const float* src = frame.data();
  double* dst = plane.data();
  // Pass 1: row-local horizontal prefix sums; row 0 stays zero.
  for (int64_t r = 0; r < h; ++r) {
    double running = 0.0;
    for (int64_t c = 0; c < w; ++c) {
      running += static_cast<double>(src[r * w + c]);
      dst[(r + 1) * stride + c + 1] = running;
    }
  }
  // Pass 2: vertical accumulation down the rows.
  for (int64_t r = 1; r <= h; ++r) {
    for (int64_t c = 1; c <= w; ++c) {
      dst[r * stride + c] += dst[(r - 1) * stride + c];
    }
  }
  return plane;
}

/// \brief Flat copy of a tiled plane's global prefixes; O(cells).
inline SatPlane MaterializeSatPlane(const TiledSatPlane& tiled) {
  SatPlane plane(tiled.height(), tiled.width());
  double* dst = plane.data();
  const int64_t stride = tiled.width() + 1;
  for (int64_t r = 0; r <= tiled.height(); ++r) {
    for (int64_t c = 0; c <= tiled.width(); ++c) {
      dst[r * stride + c] = tiled.PrefixAt(r, c);
    }
  }
  return plane;
}

}  // namespace testing
}  // namespace one4all

#endif  // ONE4ALL_TESTS_SAT_ORACLE_H_
