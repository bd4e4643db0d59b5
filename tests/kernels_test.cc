// Parity tests pinning the blocked/vectorized kernel subsystem
// (tensor/gemm.h routing in tensor/kernels.cc) to the scalar reference
// implementations in namespace naive, plus Workspace arena semantics and
// threaded-execution parity under a ScopedComputePool.
#include <gtest/gtest.h>

#include <cmath>
#include <thread>
#include <vector>

#include "core/rng.h"
#include "core/thread_pool.h"
#include "tensor/gemm.h"
#include "tensor/kernels.h"

namespace one4all {
namespace {

// Elementwise |a-b| <= atol + rtol*|b|; the plain atol of AllClose is too
// brittle for size-1024 reductions whose naive/blocked summation orders
// differ.
void ExpectAllCloseRel(const Tensor& a, const Tensor& b, float atol,
                       float rtol) {
  ASSERT_EQ(a.shape(), b.shape());
  for (int64_t i = 0; i < a.numel(); ++i) {
    ASSERT_NEAR(a[i], b[i], atol + rtol * std::fabs(b[i]))
        << "element " << i;
  }
}

struct MatMulCase {
  int64_t m, k, n;
};

class MatMulParityTest : public ::testing::TestWithParam<MatMulCase> {};

TEST_P(MatMulParityTest, AllVariantsMatchNaive) {
  const MatMulCase& cs = GetParam();
  Rng rng(1234 + cs.m + cs.k * 7 + cs.n * 13);
  Tensor a = Tensor::RandomNormal({cs.m, cs.k}, &rng);
  Tensor b = Tensor::RandomNormal({cs.k, cs.n}, &rng);
  ExpectAllCloseRel(MatMul(a, b), naive::MatMul(a, b), 1e-4f, 1e-4f);

  Tensor at = Transpose2D(a);  // [k, m]
  ExpectAllCloseRel(MatMulTransA(at, b), naive::MatMulTransA(at, b), 1e-4f,
                    1e-4f);
  Tensor bt = Transpose2D(b);  // [n, k]
  ExpectAllCloseRel(MatMulTransB(a, bt), naive::MatMulTransB(a, bt), 1e-4f,
                    1e-4f);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, MatMulParityTest,
    ::testing::Values(MatMulCase{1, 1, 1},       // scalar product
                      MatMulCase{1, 257, 1},     // k crosses a KC block
                      MatMulCase{7, 1, 9},       // k = 1 outer product
                      MatMulCase{5, 3, 2},       // tiny non-square
                      MatMulCase{6, 16, 16},     // exactly one micro-tile
                      MatMulCase{13, 31, 47},    // ragged micro-tiles
                      MatMulCase{127, 129, 65},  // straddles MC and KC
                      MatMulCase{128, 300, 17},  // several KC blocks
                      MatMulCase{121, 120, 121}));

TEST(SgemmTest, AlphaBetaAndAccumulate) {
  Rng rng(7);
  const int64_t m = 33, k = 65, n = 29;
  Tensor a = Tensor::RandomNormal({m, k}, &rng);
  Tensor b = Tensor::RandomNormal({k, n}, &rng);
  Tensor c0 = Tensor::RandomNormal({m, n}, &rng);

  // C = 0.5*A*B + 2*C against the composed reference.
  Tensor c = c0;
  Sgemm(false, false, m, n, k, 0.5f, a.data(), k, b.data(), n, 2.0f,
        c.data(), n);
  Tensor want = naive::MatMul(a, b).MulScalar(0.5f).Add(c0.MulScalar(2.0f));
  ExpectAllCloseRel(c, want, 1e-4f, 1e-4f);

  // alpha = 0 must only scale C, never read A/B products.
  Tensor c2 = c0;
  Sgemm(false, false, m, n, k, 0.0f, a.data(), k, b.data(), n, 3.0f,
        c2.data(), n);
  ExpectAllCloseRel(c2, c0.MulScalar(3.0f), 1e-5f, 0.0f);
}

TEST(SgemmTest, RespectsLeadingDimensions) {
  // Multiply a sub-block of a wider matrix: lda/ldb/ldc larger than the
  // logical extents.
  Rng rng(8);
  const int64_t m = 21, k = 34, n = 18;
  const int64_t lda = 40, ldb = 25, ldc = 30;
  std::vector<float> a(static_cast<size_t>(m * lda)),
      b(static_cast<size_t>(k * ldb)), c(static_cast<size_t>(m * ldc), 0.0f);
  for (float& v : a) v = static_cast<float>(rng.Uniform() - 0.5);
  for (float& v : b) v = static_cast<float>(rng.Uniform() - 0.5);
  Sgemm(false, false, m, n, k, 1.0f, a.data(), lda, b.data(), ldb, 0.0f,
        c.data(), ldc);
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (int64_t p = 0; p < k; ++p) {
        acc += static_cast<double>(a[static_cast<size_t>(i * lda + p)]) *
               b[static_cast<size_t>(p * ldb + j)];
      }
      ASSERT_NEAR(c[static_cast<size_t>(i * ldc + j)], acc, 1e-3)
          << i << "," << j;
    }
  }
}

struct ConvCase {
  int64_t n, c, h, w, f, k, stride, padding;
  bool bias;
};

class ConvParityTest : public ::testing::TestWithParam<ConvCase> {};

TEST_P(ConvParityTest, ForwardAndBackwardMatchNaive) {
  const ConvCase& cs = GetParam();
  Rng rng(99 + cs.n + cs.c * 3 + cs.k * 11);
  Tensor x = Tensor::RandomNormal({cs.n, cs.c, cs.h, cs.w}, &rng);
  Tensor w = Tensor::RandomNormal({cs.f, cs.c, cs.k, cs.k}, &rng);
  Tensor b = cs.bias ? Tensor::RandomNormal({cs.f}, &rng) : Tensor();
  Conv2dSpec spec{cs.stride, cs.padding};

  Tensor out = Conv2dForward(x, w, b, spec);
  Tensor want = naive::Conv2dForward(x, w, b, spec);
  ExpectAllCloseRel(out, want, 1e-4f, 1e-4f);

  Rng grng(3);
  Tensor go = Tensor::RandomNormal(out.shape(), &grng);
  Tensor gi, gw, gb, ngi, ngw, ngb;
  Conv2dBackward(x, w, go, spec, &gi, &gw, cs.bias ? &gb : nullptr);
  naive::Conv2dBackward(x, w, go, spec, &ngi, &ngw,
                        cs.bias ? &ngb : nullptr);
  ExpectAllCloseRel(gi, ngi, 1e-4f, 1e-4f);
  ExpectAllCloseRel(gw, ngw, 1e-4f, 1e-4f);
  if (cs.bias) ExpectAllCloseRel(gb, ngb, 1e-4f, 1e-4f);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ConvParityTest,
    ::testing::Values(
        ConvCase{1, 1, 5, 5, 1, 1, 1, 0, true},    // k=1 pointwise
        ConvCase{2, 3, 9, 7, 4, 1, 1, 0, false},   // k=1, non-square
        ConvCase{2, 3, 8, 8, 4, 3, 1, 1, true},    // the workhorse shape
        ConvCase{1, 2, 11, 5, 3, 3, 2, 1, true},   // stride 2, odd extents
        ConvCase{2, 2, 8, 8, 3, 2, 2, 0, false},   // even kernel, no bias
        ConvCase{1, 4, 9, 7, 2, 3, 3, 0, true},    // stride 3
        ConvCase{1, 2, 6, 6, 2, 5, 1, 2, true},    // kernel ~ input
        ConvCase{3, 1, 4, 4, 2, 3, 1, 2, false},   // padding > needed
        ConvCase{5, 2, 7, 7, 3, 3, 1, 1, true}));  // batch > pool chunks

TEST(ConvThreadedTest, PoolExecutionMatchesSequential) {
  Rng rng(55);
  Tensor x = Tensor::RandomNormal({8, 3, 12, 12}, &rng);
  Tensor w = Tensor::RandomNormal({5, 3, 3, 3}, &rng);
  Tensor b = Tensor::RandomNormal({5}, &rng);
  Conv2dSpec spec{1, 1};

  Tensor seq_out, sgi, sgw, sgb, go;
  {
    ThreadPool single(1);  // a one-worker ambient pool keeps it inline
    ScopedComputePool sequential(&single);
    seq_out = Conv2dForward(x, w, b, spec);
    Rng grng(4);
    go = Tensor::RandomNormal(seq_out.shape(), &grng);
    Conv2dBackward(x, w, go, spec, &sgi, &sgw, &sgb);
  }

  ThreadPool pool(4);
  ScopedComputePool scoped(&pool);
  const Tensor par_out = Conv2dForward(x, w, b, spec);
  Tensor pgi, pgw, pgb;
  Conv2dBackward(x, w, go, spec, &pgi, &pgw, &pgb);
  EXPECT_GT(pool.chunks_fanned_out(), 1);

  // Samples are chunked by the batch size alone and the shared-weight
  // partials summed in chunk order, so fan-out changes no bit.
  ExpectAllCloseRel(par_out, seq_out, 0.0f, 0.0f);
  ExpectAllCloseRel(pgi, sgi, 0.0f, 0.0f);
  ExpectAllCloseRel(pgw, sgw, 0.0f, 0.0f);
  ExpectAllCloseRel(pgb, sgb, 0.0f, 0.0f);
}

TEST(SgemmThreadedTest, PoolExecutionMatchesSequential) {
  Rng rng(66);
  Tensor a = Tensor::RandomNormal({512, 96}, &rng);
  Tensor b = Tensor::RandomNormal({96, 64}, &rng);
  Tensor seq;
  {
    ThreadPool single(1);
    ScopedComputePool sequential(&single);
    seq = MatMul(a, b);
  }
  ThreadPool pool(4);
  ScopedComputePool scoped(&pool);
  const Tensor par = MatMul(a, b);
  EXPECT_GT(pool.chunks_fanned_out(), 1);
  // Blocked accumulation order is identical with and without fan-out.
  ExpectAllCloseRel(par, seq, 0.0f, 0.0f);
}

TEST(SoftmaxThreadedTest, PoolExecutionMatchesSequential) {
  Rng rng(77);
  Tensor logits = Tensor::RandomNormal({256, 128}, &rng, 0.0f, 3.0f);
  Tensor gseq = Tensor::RandomNormal({256, 128}, &rng);
  Tensor seq, seq_back;
  {
    ThreadPool single(1);
    ScopedComputePool sequential(&single);
    seq = SoftmaxRows(logits);
    seq_back = SoftmaxRowsBackward(seq, gseq);
  }
  ThreadPool pool(4);
  ScopedComputePool scoped(&pool);
  const Tensor par = SoftmaxRows(logits);
  const Tensor par_back = SoftmaxRowsBackward(par, gseq);
  EXPECT_GT(pool.chunks_fanned_out(), 1);
  ExpectAllCloseRel(par, seq, 0.0f, 0.0f);
  ExpectAllCloseRel(par_back, seq_back, 0.0f, 0.0f);
}

TEST(WorkspaceTest, ReusesCapacityAcrossResets) {
  Workspace ws;
  float* first = ws.Alloc(1000);
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(first) % 64, 0u);
  const size_t capacity = ws.capacity();
  ws.Reset();
  // Same request after Reset reuses the chunk instead of growing.
  float* second = ws.Alloc(1000);
  EXPECT_EQ(first, second);
  EXPECT_EQ(ws.capacity(), capacity);
}

TEST(WorkspaceTest, MarkRestoreNests) {
  Workspace ws;
  float* outer = ws.Alloc(64);
  outer[0] = 42.0f;
  const Workspace::Mark mark = ws.SaveMark();
  float* inner = ws.Alloc(4096);
  inner[0] = 1.0f;
  ws.RestoreMark(mark);
  // The outer span survives the nested scope; its storage is untouched.
  EXPECT_EQ(outer[0], 42.0f);
  // And the rolled-back region is handed out again.
  float* again = ws.Alloc(4096);
  EXPECT_EQ(inner, again);
}

TEST(WorkspaceTest, ThreadLocalIsPerThread) {
  Workspace* main_ws = Workspace::ThreadLocal();
  Workspace* worker_ws = nullptr;
  ThreadPool pool(2);
  pool.Submit([&] { worker_ws = Workspace::ThreadLocal(); });
  pool.Wait();
  ASSERT_NE(worker_ws, nullptr);
  EXPECT_NE(main_ws, worker_ws);
}

/// \brief Chunks `pool` ran for one ParallelFor far past its grain
/// issued on the calling thread.
int64_t ChunksOfOneLoop(const ThreadPool& pool) {
  const int64_t before = pool.chunks_fanned_out();
  ParallelFor(1000, 1, [](int64_t, int64_t) {});
  return pool.chunks_fanned_out() - before;
}

TEST(ComputePoolTest, ScopedInstallAndRestore) {
  ThreadPool pool(2);
  EXPECT_EQ(ChunksOfOneLoop(pool), 0);  // no ambient pool: Shared()
  {
    ScopedComputePool scoped(&pool);
    EXPECT_GT(ChunksOfOneLoop(pool), 1);
    {
      // A null pool installs none: the loop goes to Shared() again.
      ScopedComputePool inner(nullptr);
      EXPECT_EQ(ChunksOfOneLoop(pool), 0);
    }
    EXPECT_GT(ChunksOfOneLoop(pool), 1);
  }
  EXPECT_EQ(ChunksOfOneLoop(pool), 0);
}

TEST(ComputePoolTest, LoopsOfPoolTasksRunInline) {
  // A task running on a pool worker is already parallel work: its loops
  // run as one call on that worker, whatever the submitter installed.
  ThreadPool pool(2);
  ScopedComputePool scoped(&pool);
  int calls = 0;
  std::thread::id runner;
  std::thread::id worker;
  pool.Submit([&] {
    worker = std::this_thread::get_id();
    ParallelFor(1000, 1, [&](int64_t, int64_t) {
      ++calls;
      runner = std::this_thread::get_id();
    });
  });
  pool.Wait();
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(runner, worker);
  EXPECT_EQ(pool.chunks_fanned_out(), 0);
}

}  // namespace
}  // namespace one4all
