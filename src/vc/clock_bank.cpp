#include "vc/clock_bank.hpp"

#include <new>

#include <sys/mman.h>
#include <unistd.h>

#ifdef AERO_VC_X86_DISPATCH
#include <immintrin.h>
#endif

namespace aero {

#ifdef AERO_VC_X86_DISPATCH
namespace vck {
namespace detail {

const bool kHaveAvx2 = __builtin_cpu_supports("avx2");

__attribute__((target("avx2"))) void
join_avx2(ClockValue* dst, const ClockValue* src, size_t n)
{
    size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        __m256i d =
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dst + i));
        __m256i s =
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i));
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i),
                            _mm256_max_epu32(d, s));
    }
    for (; i < n; ++i)
        dst[i] = dst[i] < src[i] ? src[i] : dst[i];
}

__attribute__((target("avx2"))) bool
leq_avx2(const ClockValue* a, const ClockValue* b, size_t n)
{
    // a <= b pointwise iff max(a, b) == b lane-wise; accumulate lane
    // mismatches and check once per block so the common all-ok case runs
    // branch-free.
    size_t i = 0;
    for (; i + 32 <= n; i += 32) {
        __m256i bad = _mm256_setzero_si256();
        for (size_t j = i; j < i + 32; j += 8) {
            __m256i va = _mm256_loadu_si256(
                reinterpret_cast<const __m256i*>(a + j));
            __m256i vb = _mm256_loadu_si256(
                reinterpret_cast<const __m256i*>(b + j));
            __m256i mx = _mm256_max_epu32(va, vb);
            bad = _mm256_or_si256(bad, _mm256_xor_si256(mx, vb));
        }
        if (!_mm256_testz_si256(bad, bad))
            return false;
    }
    __m256i bad = _mm256_setzero_si256();
    for (; i + 8 <= n; i += 8) {
        __m256i va =
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
        __m256i vb =
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i));
        __m256i mx = _mm256_max_epu32(va, vb);
        bad = _mm256_or_si256(bad, _mm256_xor_si256(mx, vb));
    }
    if (!_mm256_testz_si256(bad, bad))
        return false;
    for (; i < n; ++i) {
        if (a[i] > b[i])
            return false;
    }
    return true;
}

} // namespace detail
} // namespace vck
#endif // AERO_VC_X86_DISPATCH

namespace {

constexpr size_t kAlignment = 64;

ClockValue*
alloc_aligned(size_t values)
{
    return static_cast<ClockValue*>(::operator new(
        values * sizeof(ClockValue), std::align_val_t(kAlignment)));
}

/** A zero-filled anonymous mapping of `bytes` (a page multiple). */
ClockValue*
map_zeroed(size_t bytes)
{
    void* p = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (p == MAP_FAILED)
        throw std::bad_alloc();
    return static_cast<ClockValue*>(p);
}

/** Free rows allocated by map_zeroed (map_bytes != 0) or alloc_aligned. */
void
free_rows(ClockValue* p, size_t map_bytes)
{
    if (map_bytes != 0)
        ::munmap(p, map_bytes);
    else
        ::operator delete(p, std::align_val_t(kAlignment));
}

size_t
round_to_page(size_t bytes)
{
    static const size_t page = static_cast<size_t>(::sysconf(_SC_PAGESIZE));
    return (bytes + page - 1) / page * page;
}

size_t
round_to_line(size_t values)
{
    const size_t line = ClockBank::kLineValues;
    return (values + line - 1) / line * line;
}

/** The stride for dimension d grown from stride cur: a power of two
 *  >= max(d, kMinStride) while that fits one line (so rows never straddle
 *  a line), else whole lines, at least doubling the current stride. */
size_t
stride_for(size_t d, size_t cur)
{
    if (d <= ClockBank::kLineValues) {
        size_t s = ClockBank::kMinStride;
        while (s < d)
            s *= 2;
        return s;
    }
    return round_to_line(cur * 2 > d ? cur * 2 : d);
}

} // namespace

void
ClockBank::release()
{
    free_rows(data_, map_bytes_);
    data_ = nullptr;
    rows_ = row_cap_ = dim_ = stride_ = map_bytes_ = 0;
}

void
ClockBank::relayout(size_t new_row_cap, size_t new_stride)
{
    const size_t bytes = new_row_cap * new_stride * sizeof(ClockValue);
#ifdef MREMAP_MAYMOVE
    if (map_bytes_ != 0 && new_stride == stride_) {
        // Same layout, more rows: move the page tables, not the rows. The
        // pages past the old end arrive zero on first touch.
        const size_t len = round_to_page(bytes);
        void* p = ::mremap(data_, map_bytes_, len, MREMAP_MAYMOVE);
        if (p == MAP_FAILED)
            throw std::bad_alloc();
        data_ = static_cast<ClockValue*>(p);
        map_bytes_ = len;
        row_cap_ = new_row_cap;
        return;
    }
#endif
    ClockValue* fresh;
    size_t fresh_map = 0;
    if (bytes >= kMapBytes) {
        fresh_map = round_to_page(bytes);
        fresh = map_zeroed(fresh_map);
    } else {
        fresh = alloc_aligned(new_row_cap * new_stride);
        std::memset(fresh, 0, bytes);
    }
    for (size_t i = 0; i < rows_; ++i) {
        std::memcpy(fresh + i * new_stride, data_ + i * stride_,
                    dim_ * sizeof(ClockValue));
    }
    free_rows(data_, map_bytes_);
    data_ = fresh;
    map_bytes_ = fresh_map;
    row_cap_ = new_row_cap;
    stride_ = new_stride;
}

void
ClockBank::ensure_rows(size_t n)
{
    if (n <= rows_)
        return;
    if (stride_ == 0)
        stride_ = kMinStride; // dimension still 0: the narrowest row
    if (n > row_cap_) {
        size_t new_cap = row_cap_ < 4 ? 4 : row_cap_ * 2;
        if (new_cap < n)
            new_cap = n;
        relayout(new_cap, stride_);
    }
    // Rows rows_..n are already zero (relayout and first allocation zero
    // the whole arena or map it zero, and clear() keeps retired rows at
    // bottom).
    rows_ = n;
}

void
ClockBank::ensure_dim(size_t d)
{
    if (d <= dim_)
        return;
    if (d > stride_) {
        size_t new_stride = stride_for(d, stride_);
        if (row_cap_ == 0) {
            stride_ = new_stride; // nothing allocated yet
        } else {
            relayout(row_cap_, new_stride);
        }
    }
    // Components dim_..d are zero in every row (the padding invariant), so
    // exposing them is free.
    dim_ = d;
}

} // namespace aero
