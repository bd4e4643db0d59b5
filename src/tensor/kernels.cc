#include "tensor/kernels.h"

#include <algorithm>
#include <cmath>

#include "core/thread_pool.h"

namespace one4all {

namespace {

// Fan-out grains. Below this many elements a row-parallel fan-out costs
// more than it saves; softmax and friends stay on the calling thread.
constexpr int64_t kParallelRowThreshold = 1 << 14;
// Convolutions fan out over samples from two of them.
constexpr int64_t kParallelSamples = 2;
// Conv2dBackward splits its samples into at most this many chunks, each
// accumulating the shared-weight gradients on its own, summed in chunk
// order afterwards.
constexpr int64_t kMaxGradChunks = 8;

// Rows of `cols` elements each that reach kParallelRowThreshold.
int64_t RowGrain(int64_t cols) {
  return (kParallelRowThreshold + cols - 1) / std::max<int64_t>(cols, 1);
}

void CheckMatMul2d(const Tensor& a, const Tensor& b) {
  O4A_CHECK_EQ(a.ndim(), 2u);
  O4A_CHECK_EQ(b.ndim(), 2u);
}

// Sums grad_output[s] rows into grad_bias (one value per filter).
void AccumulateBias(const float* go, int64_t f, int64_t plane,
                    float* grad_bias) {
  for (int64_t fi = 0; fi < f; ++fi) {
    const float* row = go + fi * plane;
    double acc = 0.0;
    for (int64_t i = 0; i < plane; ++i) acc += row[i];
    grad_bias[fi] += static_cast<float>(acc);
  }
}

}  // namespace

Tensor MatMul(const Tensor& a, const Tensor& b) {
  CheckMatMul2d(a, b);
  const int64_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
  O4A_CHECK_EQ(k, b.dim(0));
  Tensor c({m, n});
  Sgemm(false, false, m, n, k, 1.0f, a.data(), k, b.data(), n, 0.0f,
        c.data(), n);
  return c;
}

Tensor MatMulTransA(const Tensor& a, const Tensor& b) {
  CheckMatMul2d(a, b);
  const int64_t k = a.dim(0), m = a.dim(1), n = b.dim(1);
  O4A_CHECK_EQ(k, b.dim(0));
  Tensor c({m, n});
  Sgemm(true, false, m, n, k, 1.0f, a.data(), m, b.data(), n, 0.0f,
        c.data(), n);
  return c;
}

Tensor MatMulTransB(const Tensor& a, const Tensor& b) {
  CheckMatMul2d(a, b);
  const int64_t m = a.dim(0), k = a.dim(1), n = b.dim(0);
  O4A_CHECK_EQ(k, b.dim(1));
  Tensor c({m, n});
  Sgemm(false, true, m, n, k, 1.0f, a.data(), k, b.data(), k, 0.0f,
        c.data(), n);
  return c;
}

Tensor Transpose2D(const Tensor& a) {
  O4A_CHECK_EQ(a.ndim(), 2u);
  const int64_t m = a.dim(0), n = a.dim(1);
  Tensor t({n, m});
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = 0; j < n; ++j) t.at(j, i) = a.at(i, j);
  }
  return t;
}

void Im2ColInto(const Tensor& input, int64_t sample, int64_t kh, int64_t kw,
                const Conv2dSpec& spec, float* out) {
  O4A_CHECK_EQ(input.ndim(), 4u);
  const int64_t c = input.dim(1), h = input.dim(2), w = input.dim(3);
  const int64_t oh = spec.OutExtent(h, kh), ow = spec.OutExtent(w, kw);
  O4A_CHECK_GT(oh, 0);
  O4A_CHECK_GT(ow, 0);
  const int64_t plane = h * w;
  const float* base = input.data() + sample * c * plane;
  int64_t row = 0;
  for (int64_t ci = 0; ci < c; ++ci) {
    const float* chan = base + ci * plane;
    for (int64_t ki = 0; ki < kh; ++ki) {
      for (int64_t kj = 0; kj < kw; ++kj, ++row) {
        float* out_row = out + row * (oh * ow);
        for (int64_t oi = 0; oi < oh; ++oi) {
          const int64_t ii = oi * spec.stride + ki - spec.padding;
          if (ii < 0 || ii >= h) {
            std::fill(out_row + oi * ow, out_row + (oi + 1) * ow, 0.0f);
            continue;
          }
          const float* in_row = chan + ii * w;
          const int64_t jj0 = kj - spec.padding;
          if (spec.stride == 1 && jj0 >= 0 && jj0 + ow <= w) {
            // Fully interior stride-1 row: one contiguous copy.
            std::copy(in_row + jj0, in_row + jj0 + ow, out_row + oi * ow);
            continue;
          }
          for (int64_t oj = 0; oj < ow; ++oj) {
            const int64_t jj = oj * spec.stride + jj0;
            out_row[oi * ow + oj] = (jj >= 0 && jj < w) ? in_row[jj] : 0.0f;
          }
        }
      }
    }
  }
}

Tensor Im2Col(const Tensor& input, int64_t sample, int64_t kh, int64_t kw,
              const Conv2dSpec& spec) {
  O4A_CHECK_EQ(input.ndim(), 4u);
  const int64_t c = input.dim(1), h = input.dim(2), w = input.dim(3);
  const int64_t oh = spec.OutExtent(h, kh), ow = spec.OutExtent(w, kw);
  O4A_CHECK_GT(oh, 0);
  O4A_CHECK_GT(ow, 0);
  Tensor cols({c * kh * kw, oh * ow});
  Im2ColInto(input, sample, kh, kw, spec, cols.data());
  return cols;
}

void Col2Im(const Tensor& cols, int64_t kh, int64_t kw,
            const Conv2dSpec& spec, Tensor* grad_input, int64_t sample) {
  O4A_CHECK(grad_input != nullptr);
  O4A_CHECK_EQ(grad_input->ndim(), 4u);
  O4A_CHECK_EQ(cols.dim(0), grad_input->dim(1) * kh * kw);
  O4A_CHECK_EQ(cols.dim(1), spec.OutExtent(grad_input->dim(2), kh) *
                                spec.OutExtent(grad_input->dim(3), kw));
  Col2ImFrom(cols.data(), kh, kw, spec, grad_input, sample);
}

void Col2ImFrom(const float* cols, int64_t kh, int64_t kw,
                const Conv2dSpec& spec, Tensor* grad_input, int64_t sample) {
  O4A_CHECK(grad_input != nullptr);
  O4A_CHECK_EQ(grad_input->ndim(), 4u);
  const int64_t c = grad_input->dim(1), h = grad_input->dim(2),
                w = grad_input->dim(3);
  const int64_t oh = spec.OutExtent(h, kh), ow = spec.OutExtent(w, kw);
  const float* pc = cols;
  const int64_t plane = h * w;
  float* base = grad_input->data() + sample * c * plane;
  int64_t row = 0;
  for (int64_t ci = 0; ci < c; ++ci) {
    float* chan = base + ci * plane;
    for (int64_t ki = 0; ki < kh; ++ki) {
      for (int64_t kj = 0; kj < kw; ++kj, ++row) {
        const float* in_row = pc + row * (oh * ow);
        for (int64_t oi = 0; oi < oh; ++oi) {
          const int64_t ii = oi * spec.stride + ki - spec.padding;
          if (ii < 0 || ii >= h) continue;
          const int64_t jj0 = kj - spec.padding;
          if (spec.stride == 1 && jj0 >= 0 && jj0 + ow <= w) {
            float* dst = chan + ii * w + jj0;
            const float* src = in_row + oi * ow;
            for (int64_t oj = 0; oj < ow; ++oj) dst[oj] += src[oj];
            continue;
          }
          for (int64_t oj = 0; oj < ow; ++oj) {
            const int64_t jj = oj * spec.stride + jj0;
            if (jj < 0 || jj >= w) continue;
            chan[ii * w + jj] += in_row[oi * ow + oj];
          }
        }
      }
    }
  }
}

Tensor Conv2dForward(const Tensor& input, const Tensor& weight,
                     const Tensor& bias, const Conv2dSpec& spec) {
  O4A_CHECK_EQ(input.ndim(), 4u);
  O4A_CHECK_EQ(weight.ndim(), 4u);
  const int64_t n = input.dim(0), c = input.dim(1), h = input.dim(2),
                w = input.dim(3);
  const int64_t f = weight.dim(0), kh = weight.dim(2), kw = weight.dim(3);
  O4A_CHECK_EQ(weight.dim(1), c);
  const int64_t oh = spec.OutExtent(h, kh), ow = spec.OutExtent(w, kw);
  const bool has_bias = !bias.empty();
  if (has_bias) O4A_CHECK_EQ(bias.numel(), f);

  Tensor out({n, f, oh, ow});
  const int64_t patch = c * kh * kw;   // im2col rows == GEMM depth
  const int64_t plane = oh * ow;       // GEMM columns
  // weight is [F,C,kh,kw] contiguous, i.e. already the [F, patch] GEMM
  // left operand — no reshape copy needed.
  const float* wmat = weight.data();

  auto run_samples = [&](int64_t begin, int64_t end) {
    Workspace* ws = Workspace::ThreadLocal();
    const Workspace::Mark mark = ws->SaveMark();
    float* cols = ws->Alloc(static_cast<size_t>(patch * plane));
    for (int64_t s = begin; s < end; ++s) {
      Im2ColInto(input, s, kh, kw, spec, cols);
      float* dst = out.data() + s * f * plane;
      Sgemm(false, false, f, plane, patch, 1.0f, wmat, patch, cols, plane,
            0.0f, dst, plane);
      if (has_bias) {
        for (int64_t fi = 0; fi < f; ++fi) {
          const float bv = bias[fi];
          float* row = dst + fi * plane;
          for (int64_t i = 0; i < plane; ++i) row[i] += bv;
        }
      }
    }
    ws->RestoreMark(mark);
  };

  // Batch-parallel: a fanned-out chunk's per-sample Sgemm runs inline.
  ParallelFor(n, kParallelSamples, run_samples);
  return out;
}

void Conv2dBackward(const Tensor& input, const Tensor& weight,
                    const Tensor& grad_output, const Conv2dSpec& spec,
                    Tensor* grad_input, Tensor* grad_weight,
                    Tensor* grad_bias) {
  const int64_t n = input.dim(0), c = input.dim(1);
  const int64_t f = weight.dim(0), kh = weight.dim(2), kw = weight.dim(3);
  const int64_t oh = grad_output.dim(2), ow = grad_output.dim(3);
  O4A_CHECK_EQ(grad_output.dim(0), n);
  O4A_CHECK_EQ(grad_output.dim(1), f);
  // Workspace spans below are sized from oh*ow, so a grad_output whose
  // extents disagree with the spec must fail loudly here rather than
  // write out of bounds.
  O4A_CHECK_EQ(oh, spec.OutExtent(input.dim(2), kh));
  O4A_CHECK_EQ(ow, spec.OutExtent(input.dim(3), kw));

  if (grad_input) *grad_input = Tensor(input.shape());
  if (grad_weight) *grad_weight = Tensor(weight.shape());
  if (grad_bias) *grad_bias = Tensor({f});

  const int64_t patch = c * kh * kw;
  const int64_t plane = oh * ow;
  const float* wmat = weight.data();  // [F, patch]

  // A chunk's shared-weight gradient partial: dW [f, patch] when
  // grad_weight is wanted, then dB [f] when grad_bias is.
  const int64_t dw_floats = grad_weight ? f * patch : 0;
  const int64_t db_floats = grad_bias ? f : 0;
  const int64_t part_floats = dw_floats + db_floats;

  // Processes samples [begin, end), accumulating the shared-weight
  // gradients into `dw` / `db`.
  auto run_samples = [&](int64_t begin, int64_t end, float* dw, float* db) {
    Workspace* ws = Workspace::ThreadLocal();
    const Workspace::Mark mark = ws->SaveMark();
    float* cols = dw != nullptr
                      ? ws->Alloc(static_cast<size_t>(patch * plane))
                      : nullptr;
    float* dcols = grad_input != nullptr
                       ? ws->Alloc(static_cast<size_t>(patch * plane))
                       : nullptr;
    for (int64_t s = begin; s < end; ++s) {
      // This sample's output gradient viewed as [f, oh*ow].
      const float* go = grad_output.data() + s * f * plane;
      if (dw != nullptr) {
        Im2ColInto(input, s, kh, kw, spec, cols);
        // dW += go x cols^T  -> [f, patch]
        Sgemm(false, true, f, patch, plane, 1.0f, go, plane, cols, plane,
              1.0f, dw, patch);
      }
      if (grad_input != nullptr) {
        // dCols = W^T x go -> [patch, oh*ow]; per-sample slices of
        // grad_input are disjoint, so this is race-free under fan-out.
        Sgemm(true, false, patch, plane, f, 1.0f, wmat, patch, go, plane,
              0.0f, dcols, plane);
        Col2ImFrom(dcols, kh, kw, spec, grad_input, s);
      }
      if (db != nullptr) AccumulateBias(go, f, plane, db);
    }
    ws->RestoreMark(mark);
  };

  // The first chunk accumulates into the zeroed gradients themselves,
  // every later one into its own zeroed partial from the caller's arena,
  // and the partials are added in chunk order afterwards. The chunking
  // depends on n alone, so the result does not depend on scheduling or on
  // the pool's size, and a single sample allocates no partial.
  const int64_t num_chunks = std::min(n, kMaxGradChunks);
  float* dw = grad_weight ? grad_weight->data() : nullptr;
  float* db = grad_bias ? grad_bias->data() : nullptr;
  Workspace* ws = Workspace::ThreadLocal();
  const Workspace::Mark mark = ws->SaveMark();
  const size_t parts_floats = static_cast<size_t>(
      std::max<int64_t>(num_chunks - 1, 0) * part_floats);
  float* parts = parts_floats > 0 ? ws->Alloc(parts_floats) : nullptr;
  std::fill(parts, parts + parts_floats, 0.0f);
  // Every chunk holds a sample or more, so chunks reach the samples'
  // grain whenever samples do.
  ParallelFor(num_chunks, kParallelSamples,
              [&](int64_t chunk_begin, int64_t chunk_end) {
                for (int64_t ci = chunk_begin; ci < chunk_end; ++ci) {
                  float* part =
                      ci == 0 ? nullptr : parts + (ci - 1) * part_floats;
                  run_samples(ci * n / num_chunks, (ci + 1) * n / num_chunks,
                              ci == 0 || dw == nullptr ? dw : part,
                              ci == 0 || db == nullptr ? db : part + dw_floats);
                }
              });
  for (int64_t ci = 1; ci < num_chunks; ++ci) {
    const float* part = parts + (ci - 1) * part_floats;
    for (int64_t i = 0; i < dw_floats; ++i) dw[i] += part[i];
    for (int64_t i = 0; i < db_floats; ++i) db[i] += part[dw_floats + i];
  }
  ws->RestoreMark(mark);
}

Tensor GlobalAvgPoolForward(const Tensor& input) {
  O4A_CHECK_EQ(input.ndim(), 4u);
  const int64_t n = input.dim(0), c = input.dim(1), h = input.dim(2),
                w = input.dim(3);
  Tensor out({n, c, 1, 1});
  const float inv = 1.0f / static_cast<float>(h * w);
  for (int64_t s = 0; s < n; ++s) {
    for (int64_t ci = 0; ci < c; ++ci) {
      const float* plane = input.data() + (s * c + ci) * h * w;
      double acc = 0.0;
      for (int64_t i = 0; i < h * w; ++i) acc += plane[i];
      out.at(s, ci, 0, 0) = static_cast<float>(acc) * inv;
    }
  }
  return out;
}

Tensor GlobalAvgPoolBackward(const Tensor& input, const Tensor& grad_output) {
  const int64_t n = input.dim(0), c = input.dim(1), h = input.dim(2),
                w = input.dim(3);
  O4A_CHECK_EQ(grad_output.dim(0), n);
  O4A_CHECK_EQ(grad_output.dim(1), c);
  Tensor gi(input.shape());
  const float inv = 1.0f / static_cast<float>(h * w);
  for (int64_t s = 0; s < n; ++s) {
    for (int64_t ci = 0; ci < c; ++ci) {
      const float g = grad_output.at(s, ci, 0, 0) * inv;
      float* plane = gi.data() + (s * c + ci) * h * w;
      for (int64_t i = 0; i < h * w; ++i) plane[i] = g;
    }
  }
  return gi;
}

Tensor UpsampleNearestForward(const Tensor& input, int64_t factor) {
  O4A_CHECK_EQ(input.ndim(), 4u);
  O4A_CHECK_GE(factor, 1);
  const int64_t n = input.dim(0), c = input.dim(1), h = input.dim(2),
                w = input.dim(3);
  Tensor out({n, c, h * factor, w * factor});
  for (int64_t s = 0; s < n; ++s) {
    for (int64_t ci = 0; ci < c; ++ci) {
      for (int64_t i = 0; i < h * factor; ++i) {
        for (int64_t j = 0; j < w * factor; ++j) {
          out.at(s, ci, i, j) = input.at(s, ci, i / factor, j / factor);
        }
      }
    }
  }
  return out;
}

Tensor UpsampleNearestBackward(const Tensor& grad_output, int64_t factor) {
  O4A_CHECK_EQ(grad_output.ndim(), 4u);
  const int64_t n = grad_output.dim(0), c = grad_output.dim(1),
                oh = grad_output.dim(2), ow = grad_output.dim(3);
  O4A_CHECK_EQ(oh % factor, 0);
  O4A_CHECK_EQ(ow % factor, 0);
  Tensor gi({n, c, oh / factor, ow / factor});
  for (int64_t s = 0; s < n; ++s) {
    for (int64_t ci = 0; ci < c; ++ci) {
      for (int64_t i = 0; i < oh; ++i) {
        for (int64_t j = 0; j < ow; ++j) {
          gi.at(s, ci, i / factor, j / factor) +=
              grad_output.at(s, ci, i, j);
        }
      }
    }
  }
  return gi;
}

Tensor ConcatChannels(const std::vector<const Tensor*>& inputs) {
  O4A_CHECK(!inputs.empty());
  const Tensor& first = *inputs[0];
  O4A_CHECK_EQ(first.ndim(), 4u);
  const int64_t n = first.dim(0), h = first.dim(2), w = first.dim(3);
  int64_t total_c = 0;
  for (const Tensor* t : inputs) {
    O4A_CHECK_EQ(t->ndim(), 4u);
    O4A_CHECK_EQ(t->dim(0), n);
    O4A_CHECK_EQ(t->dim(2), h);
    O4A_CHECK_EQ(t->dim(3), w);
    total_c += t->dim(1);
  }
  Tensor out({n, total_c, h, w});
  const int64_t plane = h * w;
  for (int64_t s = 0; s < n; ++s) {
    int64_t coff = 0;
    for (const Tensor* t : inputs) {
      const int64_t c = t->dim(1);
      const float* src = t->data() + s * c * plane;
      float* dst = out.data() + (s * total_c + coff) * plane;
      std::copy(src, src + c * plane, dst);
      coff += c;
    }
  }
  return out;
}

std::vector<Tensor> SplitChannels(const Tensor& grad_output,
                                  const std::vector<int64_t>& channel_counts) {
  O4A_CHECK_EQ(grad_output.ndim(), 4u);
  const int64_t n = grad_output.dim(0), total_c = grad_output.dim(1),
                h = grad_output.dim(2), w = grad_output.dim(3);
  int64_t sum_c = 0;
  for (int64_t c : channel_counts) sum_c += c;
  O4A_CHECK_EQ(sum_c, total_c);
  const int64_t plane = h * w;
  std::vector<Tensor> grads;
  grads.reserve(channel_counts.size());
  for (int64_t c : channel_counts) grads.emplace_back(Tensor({n, c, h, w}));
  for (int64_t s = 0; s < n; ++s) {
    int64_t coff = 0;
    for (size_t gi = 0; gi < channel_counts.size(); ++gi) {
      const int64_t c = channel_counts[gi];
      const float* src = grad_output.data() + (s * total_c + coff) * plane;
      float* dst = grads[gi].data() + s * c * plane;
      std::copy(src, src + c * plane, dst);
      coff += c;
    }
  }
  return grads;
}

Tensor SoftmaxRows(const Tensor& logits) {
  O4A_CHECK_EQ(logits.ndim(), 2u);
  const int64_t m = logits.dim(0), n = logits.dim(1);
  Tensor out({m, n});
  auto run_rows = [&](int64_t begin, int64_t end) {
    for (int64_t i = begin; i < end; ++i) {
      const float* row = logits.data() + i * n;
      float* orow = out.data() + i * n;
      float mx = row[0];
      for (int64_t j = 1; j < n; ++j) mx = std::max(mx, row[j]);
      double denom = 0.0;
      for (int64_t j = 0; j < n; ++j) {
        orow[j] = std::exp(row[j] - mx);
        denom += orow[j];
      }
      const float inv = static_cast<float>(1.0 / denom);
      for (int64_t j = 0; j < n; ++j) orow[j] *= inv;
    }
  };
  ParallelFor(m, RowGrain(n), run_rows);
  return out;
}

Tensor SoftmaxRowsBackward(const Tensor& softmax_out,
                           const Tensor& grad_output) {
  CheckSameShape(softmax_out, grad_output, "SoftmaxRowsBackward");
  const int64_t m = softmax_out.dim(0), n = softmax_out.dim(1);
  Tensor gi({m, n});
  auto run_rows = [&](int64_t begin, int64_t end) {
    for (int64_t i = begin; i < end; ++i) {
      const float* s = softmax_out.data() + i * n;
      const float* g = grad_output.data() + i * n;
      double dot = 0.0;
      for (int64_t j = 0; j < n; ++j) dot += static_cast<double>(s[j]) * g[j];
      float* o = gi.data() + i * n;
      for (int64_t j = 0; j < n; ++j) {
        o[j] = s[j] * (g[j] - static_cast<float>(dot));
      }
    }
  };
  ParallelFor(m, RowGrain(n), run_rows);
  return gi;
}

// ---- Scalar reference implementations ----------------------------------

namespace naive {

Tensor MatMul(const Tensor& a, const Tensor& b) {
  O4A_CHECK_EQ(a.ndim(), 2u);
  O4A_CHECK_EQ(b.ndim(), 2u);
  const int64_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
  O4A_CHECK_EQ(k, b.dim(0));
  Tensor c({m, n});
  const float* pa = a.data();
  const float* pb = b.data();
  float* pc = c.data();
  // ikj loop order: streams through B and C rows for cache friendliness.
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t kk = 0; kk < k; ++kk) {
      const float av = pa[i * k + kk];
      if (av == 0.0f) continue;
      const float* brow = pb + kk * n;
      float* crow = pc + i * n;
      for (int64_t j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
  return c;
}

Tensor MatMulTransA(const Tensor& a, const Tensor& b) {
  O4A_CHECK_EQ(a.ndim(), 2u);
  O4A_CHECK_EQ(b.ndim(), 2u);
  const int64_t k = a.dim(0), m = a.dim(1), n = b.dim(1);
  O4A_CHECK_EQ(k, b.dim(0));
  Tensor c({m, n});
  const float* pa = a.data();
  const float* pb = b.data();
  float* pc = c.data();
  for (int64_t kk = 0; kk < k; ++kk) {
    const float* arow = pa + kk * m;
    const float* brow = pb + kk * n;
    for (int64_t i = 0; i < m; ++i) {
      const float av = arow[i];
      if (av == 0.0f) continue;
      float* crow = pc + i * n;
      for (int64_t j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
  return c;
}

Tensor MatMulTransB(const Tensor& a, const Tensor& b) {
  O4A_CHECK_EQ(a.ndim(), 2u);
  O4A_CHECK_EQ(b.ndim(), 2u);
  const int64_t m = a.dim(0), k = a.dim(1), n = b.dim(0);
  O4A_CHECK_EQ(k, b.dim(1));
  Tensor c({m, n});
  const float* pa = a.data();
  const float* pb = b.data();
  float* pc = c.data();
  for (int64_t i = 0; i < m; ++i) {
    const float* arow = pa + i * k;
    for (int64_t j = 0; j < n; ++j) {
      const float* brow = pb + j * k;
      double acc = 0.0;
      for (int64_t kk = 0; kk < k; ++kk) acc += arow[kk] * brow[kk];
      pc[i * n + j] = static_cast<float>(acc);
    }
  }
  return c;
}

Tensor Conv2dForward(const Tensor& input, const Tensor& weight,
                     const Tensor& bias, const Conv2dSpec& spec) {
  O4A_CHECK_EQ(input.ndim(), 4u);
  O4A_CHECK_EQ(weight.ndim(), 4u);
  const int64_t n = input.dim(0), c = input.dim(1), h = input.dim(2),
                w = input.dim(3);
  const int64_t f = weight.dim(0), kh = weight.dim(2), kw = weight.dim(3);
  O4A_CHECK_EQ(weight.dim(1), c);
  const int64_t oh = spec.OutExtent(h, kh), ow = spec.OutExtent(w, kw);
  const bool has_bias = !bias.empty();
  if (has_bias) O4A_CHECK_EQ(bias.numel(), f);

  Tensor out({n, f, oh, ow});
  const Tensor wmat = weight.Reshape({f, c * kh * kw});
  for (int64_t s = 0; s < n; ++s) {
    const Tensor cols = Im2Col(input, s, kh, kw, spec);
    Tensor prod = naive::MatMul(wmat, cols);  // [f, oh*ow]
    float* dst = out.data() + s * f * oh * ow;
    const float* src = prod.data();
    std::copy(src, src + f * oh * ow, dst);
    if (has_bias) {
      for (int64_t fi = 0; fi < f; ++fi) {
        const float bv = bias[fi];
        float* row = dst + fi * oh * ow;
        for (int64_t i = 0; i < oh * ow; ++i) row[i] += bv;
      }
    }
  }
  return out;
}

void Conv2dBackward(const Tensor& input, const Tensor& weight,
                    const Tensor& grad_output, const Conv2dSpec& spec,
                    Tensor* grad_input, Tensor* grad_weight,
                    Tensor* grad_bias) {
  const int64_t n = input.dim(0), c = input.dim(1);
  const int64_t f = weight.dim(0), kh = weight.dim(2), kw = weight.dim(3);
  const int64_t oh = grad_output.dim(2), ow = grad_output.dim(3);
  O4A_CHECK_EQ(grad_output.dim(0), n);
  O4A_CHECK_EQ(grad_output.dim(1), f);

  if (grad_input) *grad_input = Tensor(input.shape());
  if (grad_weight) *grad_weight = Tensor(weight.shape());
  if (grad_bias) *grad_bias = Tensor({f});

  const Tensor wmat = weight.Reshape({f, c * kh * kw});
  for (int64_t s = 0; s < n; ++s) {
    // View of this sample's output gradient as [f, oh*ow].
    Tensor go({f, oh * ow});
    const float* src = grad_output.data() + s * f * oh * ow;
    std::copy(src, src + f * oh * ow, go.data());

    if (grad_weight) {
      const Tensor cols = Im2Col(input, s, kh, kw, spec);
      // dW += go x cols^T  -> [f, c*kh*kw]
      Tensor dw = naive::MatMulTransB(go, cols);
      grad_weight->AddInPlace(dw.Reshape(weight.shape()));
    }
    if (grad_input) {
      // dCols = W^T x go -> [c*kh*kw, oh*ow]
      Tensor dcols = naive::MatMulTransA(wmat, go);
      Col2Im(dcols, kh, kw, spec, grad_input, s);
    }
    if (grad_bias) AccumulateBias(go.data(), f, oh * ow, grad_bias->data());
  }
}

}  // namespace naive

}  // namespace one4all
