/**
 * @file
 * Unit tests for the vector clock library (paper, Section 4 notation) and
 * for the ClockBank contiguous arena, including randomized parity fuzzing
 * of the bank kernels against the scalar VectorClock reference.
 */

#include <gtest/gtest.h>

#include <utility>

#include "support/rng.hpp"
#include "vc/clock_bank.hpp"
#include "vc/flat_table.hpp"
#include "vc/vector_clock.hpp"

namespace aero {
namespace {

TEST(VectorClock, DefaultIsBottom)
{
    VectorClock v;
    EXPECT_TRUE(v.is_bottom());
    EXPECT_EQ(v.dim(), 0u);
    EXPECT_EQ(v.get(0), 0u);
    EXPECT_EQ(v.get(100), 0u);
}

TEST(VectorClock, SetAndGet)
{
    VectorClock v;
    v.set(2, 5);
    EXPECT_EQ(v.get(0), 0u);
    EXPECT_EQ(v.get(2), 5u);
    EXPECT_EQ(v.dim(), 3u);
    EXPECT_FALSE(v.is_bottom());
}

TEST(VectorClock, SettingZeroBeyondDimIsNoop)
{
    VectorClock v;
    v.set(5, 0);
    EXPECT_EQ(v.dim(), 0u);
}

TEST(VectorClock, TickIncrements)
{
    VectorClock v;
    v.tick(1);
    v.tick(1);
    EXPECT_EQ(v.get(1), 2u);
}

TEST(VectorClock, InitializerList)
{
    VectorClock v{2, 0, 1};
    EXPECT_EQ(v.get(0), 2u);
    EXPECT_EQ(v.get(1), 0u);
    EXPECT_EQ(v.get(2), 1u);
}

TEST(VectorClock, JoinIsPointwiseMax)
{
    VectorClock a{2, 0, 1};
    VectorClock b{1, 3};
    a.join(b);
    EXPECT_EQ(a, (VectorClock{2, 3, 1}));
}

TEST(VectorClock, JoinGrowsDimension)
{
    VectorClock a{1};
    VectorClock b{0, 0, 7};
    a.join(b);
    EXPECT_EQ(a.get(2), 7u);
    EXPECT_EQ(a.get(0), 1u);
}

TEST(VectorClock, JoinWithBottomIsIdentity)
{
    VectorClock a{4, 5};
    VectorClock bot;
    a.join(bot);
    EXPECT_EQ(a, (VectorClock{4, 5}));
}

TEST(VectorClock, LeqReflexive)
{
    VectorClock a{1, 2, 3};
    EXPECT_TRUE(a.leq(a));
}

TEST(VectorClock, LeqPointwise)
{
    VectorClock a{1, 2};
    VectorClock b{2, 2, 1};
    EXPECT_TRUE(a.leq(b));
    EXPECT_FALSE(b.leq(a));
}

TEST(VectorClock, LeqIncomparable)
{
    VectorClock a{1, 0};
    VectorClock b{0, 1};
    EXPECT_FALSE(a.leq(b));
    EXPECT_FALSE(b.leq(a));
}

TEST(VectorClock, BottomLeqEverything)
{
    VectorClock bot;
    VectorClock b{0, 1};
    EXPECT_TRUE(bot.leq(b));
    EXPECT_TRUE(bot.leq(bot));
}

TEST(VectorClock, LeqDifferentDims)
{
    VectorClock a{1, 0, 0};
    VectorClock b{1};
    EXPECT_TRUE(a.leq(b));
    EXPECT_TRUE(b.leq(a));
}

TEST(VectorClock, LeqExceptSkipsComponent)
{
    VectorClock a{5, 1};
    VectorClock b{0, 2};
    EXPECT_FALSE(a.leq(b));
    EXPECT_TRUE(a.leq_except(b, 0));
    EXPECT_FALSE(a.leq_except(b, 1));
}

TEST(VectorClock, JoinExceptZeroesComponent)
{
    VectorClock a{1, 1, 1};
    VectorClock b{9, 9, 9};
    a.join_except(b, 1);
    EXPECT_EQ(a, (VectorClock{9, 1, 9}));
}

TEST(VectorClock, JoinExceptGrowsDimension)
{
    VectorClock a;
    VectorClock b{3, 4};
    a.join_except(b, 0);
    EXPECT_EQ(a, (VectorClock{0, 4}));
}

TEST(VectorClock, EqualityIgnoresTrailingZeros)
{
    VectorClock a{1, 2};
    VectorClock b{1, 2, 0, 0};
    EXPECT_EQ(a, b);
    b.set(3, 1);
    EXPECT_NE(a, b);
}

TEST(VectorClock, ClearResetsToBottomKeepingDim)
{
    VectorClock a{1, 2};
    a.clear();
    EXPECT_TRUE(a.is_bottom());
}

TEST(VectorClock, ToString)
{
    VectorClock a{2, 0, 1};
    EXPECT_EQ(a.to_string(), "<2,0,1>");
    EXPECT_EQ(VectorClock{}.to_string(), "<>");
}

/** The paper's notation checks: bot[1/t] etc. */
TEST(VectorClock, PaperInitialization)
{
    // C_t := bot[1/t] for thread t = 1 of 3.
    VectorClock c(3);
    c.set(1, 1);
    EXPECT_EQ(c, (VectorClock{0, 1, 0}));
}

/** Join is commutative, associative, idempotent (property sweep). */
TEST(VectorClock, JoinLatticeLaws)
{
    const VectorClock vs[] = {
        {}, {1}, {0, 2}, {3, 1, 4}, {2, 2}, {0, 0, 0, 9},
    };
    for (const auto& a : vs) {
        for (const auto& b : vs) {
            VectorClock ab = a;
            ab.join(b);
            VectorClock ba = b;
            ba.join(a);
            EXPECT_EQ(ab, ba);
            // a <= a |_| b and b <= a |_| b.
            EXPECT_TRUE(a.leq(ab));
            EXPECT_TRUE(b.leq(ab));
            for (const auto& c : vs) {
                VectorClock ab_c = ab;
                ab_c.join(c);
                VectorClock bc = b;
                bc.join(c);
                VectorClock a_bc = a;
                a_bc.join(bc);
                EXPECT_EQ(ab_c, a_bc);
            }
        }
        VectorClock aa = a;
        aa.join(a);
        EXPECT_EQ(aa, a);
    }
}

// --- ClockBank -----------------------------------------------------------

TEST(ClockBank, DefaultIsEmpty)
{
    ClockBank bank;
    EXPECT_EQ(bank.rows(), 0u);
    EXPECT_EQ(bank.dim(), 0u);
    EXPECT_EQ(bank.stride(), 0u);
}

TEST(ClockBank, RowsStartAtBottom)
{
    ClockBank bank(3, 5);
    for (size_t i = 0; i < bank.rows(); ++i) {
        EXPECT_TRUE(bank[i].is_bottom());
        for (size_t d = 0; d < bank.dim(); ++d)
            EXPECT_EQ(bank[i].get(d), 0u);
    }
}

TEST(ClockBank, StrideIsPackedToTheDimension)
{
    // Up to one 64-byte line (16 ClockValues) the stride is the next
    // power of two >= max(dim, 4), so rows tile a line without
    // straddling it; above that it is whole lines.
    EXPECT_EQ(ClockBank(1, 1).stride(), 4u);
    EXPECT_EQ(ClockBank(1, 4).stride(), 4u);
    EXPECT_EQ(ClockBank(1, 5).stride(), 8u);
    EXPECT_EQ(ClockBank(1, 8).stride(), 8u);
    EXPECT_EQ(ClockBank(1, 9).stride(), 16u);
    EXPECT_EQ(ClockBank(1, 16).stride(), 16u);
    EXPECT_EQ(ClockBank(1, 17).stride(), 32u);
    for (size_t dim : {1u, 5u, 9u, 17u}) {
        ClockBank b(2, dim);
        EXPECT_EQ(reinterpret_cast<uintptr_t>(b.data()) % 64, 0u) << dim;
    }
}

TEST(ClockBank, GrowDimAcrossPackedStridesKeepsRowsAndPadding)
{
    // 3 -> 5 -> 9 -> 17 crosses every re-layout point of the packed
    // rule (stride 4 -> 8 -> 16 -> 32).
    ClockBank bank(6, 3);
    size_t dim = 3;
    auto expect_rows = [&](size_t want_stride) {
        ASSERT_EQ(bank.stride(), want_stride);
        ASSERT_EQ(bank.dim(), dim);
        for (size_t i = 0; i < bank.rows(); ++i) {
            for (size_t d = 0; d < dim; ++d) {
                const ClockValue want =
                    d < 3 ? static_cast<ClockValue>(10 * i + d + 1) : 0;
                EXPECT_EQ(bank[i].get(d), want)
                    << "row " << i << " comp " << d;
            }
            // Padding components dim..stride stay zero.
            for (size_t d = dim; d < bank.stride(); ++d)
                EXPECT_EQ(bank.data()[i * bank.stride() + d], 0u)
                    << "row " << i << " pad " << d;
        }
    };
    for (size_t i = 0; i < bank.rows(); ++i) {
        for (size_t d = 0; d < 3; ++d)
            bank[i].set(d, static_cast<ClockValue>(10 * i + d + 1));
    }
    expect_rows(4);
    for (auto [d, stride] : {std::pair<size_t, size_t>{5, 8},
                             {9, 16}, {17, 32}}) {
        dim = d;
        bank.ensure_dim(d);
        expect_rows(stride);
    }
}

TEST(ClockBank, SetGetTick)
{
    ClockBank bank(2, 4);
    bank[0].set(1, 7);
    bank[0].tick(1);
    bank[1].tick(3);
    EXPECT_EQ(bank[0].get(1), 8u);
    EXPECT_EQ(bank[1].get(3), 1u);
    EXPECT_EQ(bank[1].get(0), 0u);
}

TEST(ClockBank, GrowRowsPreservesContentAndZeroesNewRows)
{
    ClockBank bank(2, 4);
    bank[0].set(2, 9);
    bank[1].set(0, 3);
    bank.ensure_rows(50); // force reallocation past the initial capacity
    EXPECT_EQ(bank.rows(), 50u);
    EXPECT_EQ(bank[0].get(2), 9u);
    EXPECT_EQ(bank[1].get(0), 3u);
    for (size_t i = 2; i < bank.rows(); ++i)
        EXPECT_TRUE(bank[i].is_bottom());
}

TEST(ClockBank, GrowDimWithinStrideIsZeroFilled)
{
    ClockBank bank(2, 9);
    bank[0].set(2, 5);
    bank.ensure_dim(16); // still within the 16-component stride
    EXPECT_EQ(bank.stride(), 16u);
    EXPECT_EQ(bank[0].get(2), 5u);
    for (size_t d = 9; d < 16; ++d)
        EXPECT_EQ(bank[0].get(d), 0u);
}

TEST(ClockBank, GrowDimBeyondStrideRelayouts)
{
    ClockBank bank(3, 8);
    for (size_t i = 0; i < 3; ++i)
        bank[i].set(i, static_cast<ClockValue>(i + 1));
    bank.ensure_dim(40); // past the one-line stride: re-layout copy
    EXPECT_GE(bank.stride(), 48u);
    EXPECT_EQ(bank.stride() % ClockBank::kLineValues, 0u);
    for (size_t i = 0; i < 3; ++i) {
        EXPECT_EQ(bank[i].get(i), i + 1);
        for (size_t d = 8; d < 40; ++d)
            EXPECT_EQ(bank[i].get(d), 0u);
    }
}

TEST(ClockBank, AssignCopiesAcrossBanks)
{
    ClockBank a(1, 6);
    ClockBank b(1, 6);
    a[0].set(4, 11);
    b[0].assign(a[0]);
    EXPECT_EQ(b[0].get(4), 11u);
    a[0].set(4, 12); // copies are independent
    EXPECT_EQ(b[0].get(4), 11u);
}

TEST(ClockBank, SelfJoinIsIdentity)
{
    ClockBank bank(1, 4);
    bank[0].set(1, 3);
    bank[0].join(bank[0]);
    EXPECT_EQ(bank[0].get(1), 3u);
}

TEST(ClockBank, ToVectorClockRoundTrips)
{
    ClockBank bank(1, 3);
    bank[0].set(0, 2);
    bank[0].set(2, 1);
    EXPECT_EQ(bank[0].to_vector_clock(), (VectorClock{2, 0, 1}));
    EXPECT_EQ(bank[0].to_string(), "<2,0,1>");
}

/** Randomized parity fuzzing: every bank kernel must agree with the
 *  scalar VectorClock implementation, across dimensions that exercise
 *  both the small-n scalar path and the SIMD/vectorized path. */
TEST(ClockBank, FuzzParityWithVectorClock)
{
    Rng rng(0xc10cba7eULL);
    for (size_t dim : {1u, 3u, 8u, 16u, 17u, 33u, 64u, 100u}) {
        for (int iter = 0; iter < 200; ++iter) {
            VectorClock va(dim), vb(dim);
            ClockBank bank(2, dim);
            for (size_t d = 0; d < dim; ++d) {
                // Small value range so leq outcomes are well mixed.
                ClockValue x =
                    static_cast<ClockValue>(rng.next_below(4));
                ClockValue y =
                    static_cast<ClockValue>(rng.next_below(4));
                va.set(d, x);
                vb.set(d, y);
                bank[0].set(d, x);
                bank[1].set(d, y);
            }
            size_t skip = rng.next_below(dim + 1); // may be == dim
            EXPECT_EQ(bank[0].leq(bank[1]), va.leq(vb));
            EXPECT_EQ(bank[1].leq(bank[0]), vb.leq(va));
            EXPECT_EQ(bank[0].leq_except(bank[1], skip),
                      va.leq_except(vb, skip));
            EXPECT_EQ(bank[0].is_bottom(), va.is_bottom());

            if (rng.next_bool()) {
                bank[0].join(bank[1]);
                va.join(vb);
            } else {
                bank[0].join_except(bank[1], skip);
                va.join_except(vb, skip);
            }
            EXPECT_EQ(bank[0].to_vector_clock(), va)
                << "dim=" << dim << " iter=" << iter;
        }
    }
}

/** The engines interleave dimension and row growth; parity must survive
 *  arbitrary interleavings of grows and kernel applications. */
TEST(ClockBank, FuzzGrowthParity)
{
    Rng rng(0x9e0ba27eULL);
    for (int iter = 0; iter < 100; ++iter) {
        ClockBank bank(2, 2);
        VectorClock ref[2] = {VectorClock(2), VectorClock(2)};
        size_t dim = 2;
        for (int step = 0; step < 60; ++step) {
            switch (rng.next_below(4)) {
              case 0: { // grow the dimension
                dim += rng.next_below(12);
                bank.ensure_dim(dim);
                break;
              }
              case 1: { // set a component
                size_t row = rng.next_below(2);
                size_t d = rng.next_below(dim);
                ClockValue v =
                    static_cast<ClockValue>(rng.next_below(100));
                bank[row].set(d, v);
                ref[row].set(d, v);
                break;
              }
              case 2: { // join the rows
                bank[0].join(bank[1]);
                ref[0].join(ref[1]);
                break;
              }
              case 3: { // compare
                EXPECT_EQ(bank[0].leq(bank[1]), ref[0].leq(ref[1]));
                break;
              }
            }
        }
        EXPECT_EQ(bank[0].to_vector_clock(), ref[0]);
        EXPECT_EQ(bank[1].to_vector_clock(), ref[1]);
    }
}

// --- Page-backed growth ----------------------------------------------------

/** Rows of stride 8 (dims 5-8) that fill the page-backed threshold. */
constexpr size_t kMapRows8 = ClockBank::kMapBytes / (8 * sizeof(ClockValue));

/** The value the growth tests write at (row, comp): never 0, so a row
 *  that lost its contents shows. */
ClockValue
stamp(size_t row, size_t comp)
{
    return static_cast<ClockValue>(row * 31 + comp + 1);
}

/** Rows [0, rows) hold stamp() in comps [0, stamped), zero up to the
 *  stride (new components and padding alike). */
void
expect_stamped(const ClockBank& bank, size_t rows, size_t stamped)
{
    for (size_t i = 0; i < rows; ++i) {
        for (size_t d = 0; d < bank.stride(); ++d) {
            const ClockValue want = d < stamped ? stamp(i, d) : 0;
            ASSERT_EQ(bank.data()[i * bank.stride() + d], want)
                << "row " << i << " comp " << d;
        }
    }
}

TEST(ClockBank, SmallBanksStayOnTheHeap)
{
    ClockBank bank(64, 8);
    EXPECT_FALSE(bank.page_backed());
    bank.ensure_rows(kMapRows8 - 1);
    EXPECT_FALSE(bank.page_backed());
}

TEST(ClockBank, RowGrowthPastThePageThresholdKeepsRows)
{
    // Grow one row at a time, as the engines' inflation arena does: the
    // bank crosses from the heap to a mapping and then doubles in place
    // several times. Every fresh row must be bottom and every old row
    // intact; the base stays line-aligned throughout.
    const size_t dim = 5; // stride 8: 32 bytes a row
    ClockBank bank(1, dim);
    const size_t rows = 5 * kMapRows8 + 3;
    bool saw_heap = false;
    const ClockValue* base = bank.data();
    for (size_t n = 1; n <= rows; ++n) {
        bank.ensure_rows(n);
        ASSERT_TRUE(bank[n - 1].is_bottom()) << "fresh row " << n - 1;
        for (size_t d = 0; d < dim; ++d)
            bank[n - 1].set(d, stamp(n - 1, d));
        saw_heap |= !bank.page_backed();
        if (bank.data() != base) {
            base = bank.data();
            ASSERT_EQ(reinterpret_cast<uintptr_t>(base) % 64, 0u) << n;
        }
    }
    EXPECT_TRUE(saw_heap);
    EXPECT_TRUE(bank.page_backed());
    EXPECT_GE(bank.memory_bytes(),
              rows * bank.stride() * sizeof(ClockValue));
    expect_stamped(bank, rows, dim);
}

TEST(ClockBank, StrideChangeAfterPageBackedGrowthKeepsRows)
{
    const size_t rows = 2 * kMapRows8 + 7;
    ClockBank bank(rows, 6);
    ASSERT_TRUE(bank.page_backed());
    for (size_t i = 0; i < rows; ++i) {
        for (size_t d = 0; d < 6; ++d)
            bank[i].set(d, stamp(i, d));
    }
    bank.ensure_rows(rows + kMapRows8); // in-place doubling first
    for (size_t d : {9u, 17u, 40u}) {  // strides 16, 32, 64
        bank.ensure_dim(d);
        ASSERT_TRUE(bank.page_backed());
        ASSERT_EQ(reinterpret_cast<uintptr_t>(bank.data()) % 64, 0u);
        expect_stamped(bank, rows, 6);
        for (size_t i = rows; i < bank.rows(); ++i)
            ASSERT_TRUE(bank[i].is_bottom()) << "fresh row " << i;
    }
}

TEST(ClockBank, MoveAndReleaseOnAMappedBank)
{
    const size_t rows = ClockBank::kMapBytes / (4 * sizeof(ClockValue));
    ClockBank mapped(rows, 3);
    ASSERT_TRUE(mapped.page_backed());
    for (size_t i = 0; i < rows; ++i)
        mapped[i].set(2, stamp(i, 2));

    ClockBank moved(std::move(mapped)); // move-construct: takes the mapping
    EXPECT_TRUE(moved.page_backed());
    EXPECT_FALSE(mapped.page_backed());
    EXPECT_EQ(mapped.rows(), 0u);
    EXPECT_EQ(moved.rows(), rows);

    ClockBank heap(4, 3);
    heap[1].set(0, 7);
    heap = std::move(moved); // releases the heap rows, takes the mapping
    EXPECT_TRUE(heap.page_backed());
    EXPECT_EQ(heap[rows - 1].get(2), stamp(rows - 1, 2));

    ClockBank small(2, 3);
    small[1].set(1, 9);
    heap = std::move(small); // releases the mapping, takes heap rows
    EXPECT_FALSE(heap.page_backed());
    EXPECT_EQ(heap.rows(), 2u);
    EXPECT_EQ(heap[1].get(1), 9u);

    // A released bank grows again from nothing.
    mapped.ensure_dim(3);
    mapped.ensure_rows(rows);
    EXPECT_TRUE(mapped.page_backed());
    EXPECT_TRUE(mapped[rows - 1].is_bottom());
}

// --- FlatTable -----------------------------------------------------------

TEST(FlatTable, GrowBothDimensionsKeepsContentAndFill)
{
    FlatTable<uint32_t> t(2, 3, UINT32_MAX);
    t.at(0, 1) = 7;
    t.at(1, 2) = 8;
    t.ensure_cols(9); // beyond capacity: re-layout
    t.ensure_rows(5);
    EXPECT_EQ(t.rows(), 5u);
    EXPECT_EQ(t.cols(), 9u);
    EXPECT_EQ(t.at(0, 1), 7u);
    EXPECT_EQ(t.at(1, 2), 8u);
    EXPECT_EQ(t.at(0, 5), UINT32_MAX);
    EXPECT_EQ(t.at(4, 0), UINT32_MAX);
    const uint32_t* row = t.row(1);
    EXPECT_EQ(row[2], 8u);
}

} // namespace
} // namespace aero
