// Cache-blocked, register-tiled SGEMM and the workspace arena backing the
// tensor kernel layer. Sgemm packs panels of A and B into thread-local
// scratch (MC/KC/NC blocking, an MR x NR micro-kernel) and dispatches to an
// AVX2+FMA micro-kernel at runtime when the CPU supports it. Workspace is a
// bump arena so im2col buffers and packing panels are allocated once per
// thread and recycled across calls instead of hitting the heap per GEMM.
#ifndef ONE4ALL_TENSOR_GEMM_H_
#define ONE4ALL_TENSOR_GEMM_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace one4all {

/// \brief Bump-allocation arena for kernel scratch (packing panels, im2col
/// columns, per-sample partials). Alloc() hands out 64-byte-aligned float
/// spans that stay valid until the next Reset(); Reset() recycles the
/// memory without releasing it, so steady-state kernels never allocate.
class Workspace {
 public:
  Workspace() = default;
  Workspace(const Workspace&) = delete;
  Workspace& operator=(const Workspace&) = delete;

  /// \brief Returns a 64-byte-aligned, uninitialized span of `count`
  /// floats, valid until Reset() or destruction.
  float* Alloc(size_t count);

  /// \brief Recycles every span handed out so far; capacity is retained.
  void Reset();

  /// \brief Opaque snapshot of the arena's allocation state. Nested kernel
  /// calls save a mark on entry and restore it on exit so they can share
  /// one thread-local arena without clobbering the caller's live spans.
  /// Plain-old-data (allocation only ever bumps the newest chunk, so two
  /// scalars pin the whole state) — saving a mark never allocates.
  struct Mark {
    size_t num_chunks = 0;  ///< chunks existing at save time
    size_t used = 0;        ///< bump offset of the newest chunk then
  };
  Mark SaveMark() const;
  void RestoreMark(const Mark& mark);

  /// \brief Total floats of backing capacity currently held.
  size_t capacity() const;

  /// \brief Per-thread arena: one persistent Workspace per OS thread, so
  /// pool workers reuse their scratch across tasks with zero contention.
  static Workspace* ThreadLocal();

 private:
  struct Chunk {
    std::unique_ptr<float[]> data;
    size_t capacity = 0;
    size_t used = 0;
  };
  std::vector<Chunk> chunks_;
};

/// \brief C[M,N] = alpha * op(A) x op(B) + beta * C over row-major buffers
/// with leading dimensions lda/ldb/ldc. op(A) is [M,K]: A is stored [M,K]
/// when !trans_a (lda >= K) and [K,M] when trans_a (lda >= M); op(B) is
/// [K,N] analogously. Scratch comes from `ws` (thread-local arena when
/// null). The B pack and the MC row blocks fan out through ParallelFor
/// (core/thread_pool.h) once they are large enough.
void Sgemm(bool trans_a, bool trans_b, int64_t m, int64_t n, int64_t k,
           float alpha, const float* a, int64_t lda, const float* b,
           int64_t ldb, float beta, float* c, int64_t ldc,
           Workspace* ws = nullptr);

/// \brief Name of the micro-kernel the runtime dispatcher selected
/// ("avx2-fma" or "generic"); for logs and bench output.
const char* SgemmKernelName();

}  // namespace one4all

#endif  // ONE4ALL_TENSOR_GEMM_H_
