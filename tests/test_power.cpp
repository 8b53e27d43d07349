// Tests for the power substrate: profiles and the availability tracker.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <tuple>
#include <vector>

#include "power/profile.h"
#include "power/tracker.h"
#include "support/errors.h"

namespace phls {
namespace {

TEST(profile, starts_empty)
{
    const power_profile p;
    EXPECT_EQ(p.cycle_count(), 0);
    EXPECT_DOUBLE_EQ(p.peak(), 0.0);
    EXPECT_DOUBLE_EQ(p.energy(), 0.0);
    EXPECT_DOUBLE_EQ(p.average(), 0.0);
}

TEST(profile, deposit_accumulates_and_grows)
{
    power_profile p;
    p.deposit(0, 2, 2.5);
    p.deposit(1, 2, 2.7);
    EXPECT_EQ(p.cycle_count(), 3);
    EXPECT_DOUBLE_EQ(p.at(0), 2.5);
    EXPECT_DOUBLE_EQ(p.at(1), 5.2);
    EXPECT_DOUBLE_EQ(p.at(2), 2.7);
    EXPECT_DOUBLE_EQ(p.peak(), 5.2);
    EXPECT_NEAR(p.energy(), 10.4, 1e-12);
}

TEST(profile, reading_past_the_horizon_is_zero)
{
    power_profile p(3);
    EXPECT_DOUBLE_EQ(p.at(100), 0.0);
    EXPECT_THROW(p.at(-1), error);
}

TEST(profile, withdraw_reverses_deposit)
{
    power_profile p;
    p.deposit(2, 3, 4.0);
    p.withdraw(2, 3, 4.0);
    for (int c = 0; c < p.cycle_count(); ++c) EXPECT_DOUBLE_EQ(p.at(c), 0.0);
}

TEST(profile, withdraw_beyond_deposits_throws)
{
    power_profile p;
    p.deposit(0, 1, 1.0);
    EXPECT_THROW(p.withdraw(0, 1, 2.0), error);
    EXPECT_THROW(p.withdraw(5, 1, 1.0), error);
}

TEST(profile, average_over_cycles)
{
    power_profile p;
    p.deposit(0, 4, 3.0);
    EXPECT_DOUBLE_EQ(p.average(), 3.0);
    p.deposit(0, 2, 3.0);
    EXPECT_DOUBLE_EQ(p.average(), 4.5);
}

TEST(profile, ascii_chart_marks_the_cap)
{
    power_profile p;
    p.deposit(0, 1, 10.0);
    p.deposit(1, 1, 2.0);
    const std::string chart = p.ascii_chart(6.0, 20);
    EXPECT_NE(chart.find('#'), std::string::npos);
    EXPECT_NE(chart.find('!'), std::string::npos);
    EXPECT_NE(chart.find("10.00"), std::string::npos);
}

TEST(tracker, fits_respects_cap_per_cycle)
{
    power_tracker t(10.0);
    EXPECT_TRUE(t.fits(0, 3, 6.0));
    t.reserve(0, 3, 6.0);
    EXPECT_TRUE(t.fits(0, 3, 4.0));
    EXPECT_FALSE(t.fits(0, 1, 4.1));
    EXPECT_TRUE(t.fits(3, 5, 10.0)); // free cycles
}

TEST(tracker, single_op_above_cap_never_fits)
{
    power_tracker t(5.0);
    EXPECT_FALSE(t.fits(0, 1, 5.5));
}

TEST(tracker, exact_decimal_sums_fit_at_the_cap)
{
    // 2.5 + 2.5 + 2.7 == 7.7 must fit a 7.7 cap despite floating point.
    power_tracker t(7.7);
    t.reserve(0, 1, 2.5);
    t.reserve(0, 1, 2.5);
    EXPECT_TRUE(t.fits(0, 1, 2.7));
}

TEST(tracker, reserve_checks_and_release_restores)
{
    power_tracker t(8.0);
    t.reserve(0, 2, 8.0);
    EXPECT_THROW(t.reserve(1, 1, 0.5), error);
    t.release(0, 2, 8.0);
    EXPECT_TRUE(t.fits(0, 2, 8.0));
    EXPECT_DOUBLE_EQ(t.used(0), 0.0);
}

TEST(tracker, unbounded_cap_accepts_everything)
{
    power_tracker t(unbounded_power);
    EXPECT_TRUE(t.fits(0, 1, 1e12));
    t.reserve(0, 1, 1e12);
    EXPECT_TRUE(t.fits(0, 1, 1e12));
}

TEST(tracker, overlapping_reservations_stack)
{
    power_tracker t(10.0);
    t.reserve(0, 4, 3.0);
    t.reserve(2, 4, 3.0);
    EXPECT_DOUBLE_EQ(t.used(2), 6.0);
    EXPECT_FALSE(t.fits(2, 1, 4.5));
    EXPECT_TRUE(t.fits(4, 1, 7.0));
}

// --------------------------------------------------- next_fit (skip-ahead)

/// The seed-era linear probe: the definition next_fit must reproduce.
int linear_next_fit(const power_tracker& t, int start, int duration, double power)
{
    int s = start;
    while (!t.fits(s, duration, power)) ++s;
    return s;
}

TEST(tracker, next_fit_skips_past_violations)
{
    power_tracker t(10.0);
    t.reserve(0, 5, 8.0);
    t.reserve(7, 2, 8.0);
    // 3 units fit nowhere before cycle 9 for a 3-cycle op.
    EXPECT_EQ(t.next_fit(0, 3, 3.0), linear_next_fit(t, 0, 3, 3.0));
    EXPECT_EQ(t.next_fit(0, 3, 3.0), 9);
    // 3 units fit only in the gap [5, 7).
    EXPECT_EQ(t.next_fit(0, 2, 3.0), 5);
    EXPECT_EQ(t.next_fit(6, 2, 3.0), linear_next_fit(t, 6, 2, 3.0));
}

TEST(tracker, next_fit_edge_cases)
{
    power_tracker t(5.0);
    t.reserve(0, 3, 5.0);
    // Zero duration always fits in place (like fits()).
    EXPECT_EQ(t.next_fit(1, 0, 4.0), 1);
    // Power above the cap never fits anywhere.
    EXPECT_EQ(t.next_fit(0, 1, 5.5), -1);
    EXPECT_EQ(t.next_fit(0, 0, 5.5), -1);
    // A start past the horizon is free.
    EXPECT_EQ(t.next_fit(100, 4, 5.0), 100);

    power_tracker unbounded(unbounded_power);
    unbounded.reserve(0, 2, 1e12);
    EXPECT_EQ(unbounded.next_fit(0, 2, 1e12), 0);
}

TEST(tracker, next_fit_tolerance_boundary_sums)
{
    // Table-1-style decimals: sums that land exactly on the cap must fit
    // (within the tracker tolerance), one ulp-scale step above must not,
    // in both probe implementations.
    power_tracker t(7.7);
    t.reserve(0, 2, 2.5);
    t.reserve(0, 2, 2.5);
    EXPECT_EQ(t.next_fit(0, 2, 2.7), linear_next_fit(t, 0, 2, 2.7));
    EXPECT_EQ(t.next_fit(0, 2, 2.7), 0);
    EXPECT_EQ(t.next_fit(0, 2, 2.7000001), linear_next_fit(t, 0, 2, 2.7000001));
    EXPECT_EQ(t.next_fit(0, 2, 2.7000001), 2);
}

TEST(tracker, next_fit_release_then_refit)
{
    power_tracker t(6.0);
    t.reserve(0, 10, 4.0);
    EXPECT_EQ(t.next_fit(0, 2, 3.0), 10);
    t.release(2, 3, 4.0); // punch a hole
    EXPECT_EQ(t.next_fit(0, 2, 3.0), linear_next_fit(t, 0, 2, 3.0));
    EXPECT_EQ(t.next_fit(0, 2, 3.0), 2);
    t.reserve(2, 3, 4.0); // and close it again
    EXPECT_EQ(t.next_fit(0, 2, 3.0), 10);
}

/// The ledgers next_fit_matches_linear_probe_on_random_ledgers drives.
enum class ledger_case {
    short_slab,  ///< starts in [0, 60]: the slab probe answers
    trees_first, ///< the same, on a tracker whose trees headroom() built
    growing,     ///< starts drift past slab_probe_cycles mid-run
};

/// Reserves, releases and probes at random, checking every next_fit
/// against the linear probe.  Returns how many probes had to skip past
/// a violation (on the growing ledger: once it is past the crossover),
/// or -1 at the first mismatch.
int random_ledger_skips(ledger_case mode)
{
    std::mt19937_64 rng(20260730);
    int skips = 0;
    for (int trial = 0; trial < 20; ++trial) {
        const double cap = 4.0 + 0.5 * static_cast<double>(trial % 9);
        power_tracker t(cap);
        std::vector<std::tuple<int, int, double>> held;

        std::uniform_int_distribution<int> dur_d(0, 5);
        std::uniform_real_distribution<double> pow_d(0.1, cap);
        for (int step = 0; step < 120; ++step) {
            const int duration = dur_d(rng);
            const double power = pow_d(rng);
            if (!held.empty() && step % 5 == 4) {
                // Release a random reservation, then refit into the hole.
                std::uniform_int_distribution<std::size_t> pick(0, held.size() - 1);
                const std::size_t i = pick(rng);
                const auto [s, d, p] = held[i];
                t.release(s, d, p);
                held.erase(held.begin() + static_cast<std::ptrdiff_t>(i));
            }
            const int reach = mode == ledger_case::growing ? 60 + 4 * step : 60;
            const int from = std::uniform_int_distribution<int>(0, reach)(rng);
            // Once the ledger holds a cycle, this builds the trees.
            if (mode == ledger_case::trees_first) t.headroom(0, 1);
            const int slot = t.next_fit(from, duration, power);
            if (slot != linear_next_fit(t, from, duration, power)) {
                ADD_FAILURE() << "trial " << trial << " step " << step << ": next_fit "
                              << slot << ", linear " << linear_next_fit(t, from, duration, power);
                return -1;
            }
            if (slot > from && (mode != ledger_case::growing ||
                                t.profile().cycle_count() > power_tracker::slab_probe_cycles))
                ++skips;
            if (duration > 0 && step % 2 == 0) {
                t.reserve(slot, duration, power);
                held.emplace_back(slot, duration, power);
            }
        }
    }
    return skips;
}

TEST(tracker, next_fit_matches_linear_probe_on_random_ledgers)
{
    EXPECT_GT(random_ledger_skips(ledger_case::short_slab), 0);
    EXPECT_GT(random_ledger_skips(ledger_case::trees_first), 0);
    EXPECT_GT(random_ledger_skips(ledger_case::growing), 0);
}

TEST(tracker, restore_interval_unwinds_reserve_bit_exactly)
{
    power_tracker t(9.0);
    t.reserve(0, 4, 1.1);
    t.reserve(2, 3, 2.3);
    const std::vector<double> before = t.profile().values();

    const std::vector<double> saved = t.interval_values(1, 6);
    t.reserve(1, 6, 3.7);
    ASSERT_NE(t.profile().values(), before);
    t.restore_interval(1, saved);
    EXPECT_EQ(t.profile().values().size(), 7u); // horizon never shrinks
    for (int c = 0; c < t.profile().cycle_count(); ++c)
        EXPECT_EQ(t.used(c), c < static_cast<int>(before.size()) ? before[c] : 0.0);
    // The skip-ahead structure must see the restored values too.
    EXPECT_EQ(t.next_fit(0, 3, 6.0), linear_next_fit(t, 0, 3, 6.0));
}

/// Reference implementation of headroom(): cap minus the linear-scan
/// max usage of the window.
double linear_headroom(const power_tracker& t, int start, int duration)
{
    double used = 0.0;
    for (int c = start; c < start + duration; ++c) used = std::max(used, t.used(c));
    return t.cap() - used;
}

TEST(tracker, headroom_on_empty_ledger_is_the_cap)
{
    const power_tracker t(9.0);
    EXPECT_DOUBLE_EQ(t.headroom(0, 10), 9.0);
    EXPECT_DOUBLE_EQ(t.headroom(5, 0), 9.0); // empty window
}

TEST(tracker, headroom_reads_the_window_max)
{
    power_tracker t(9.0);
    t.reserve(2, 3, 2.5); // cycles 2..4
    t.reserve(3, 1, 4.0); // cycle 3 now 6.5
    EXPECT_DOUBLE_EQ(t.headroom(0, 2), 9.0);       // before the block
    EXPECT_DOUBLE_EQ(t.headroom(2, 1), 6.5);       // only cycle 2
    EXPECT_DOUBLE_EQ(t.headroom(0, 10), 2.5);      // covers cycle 3
    EXPECT_DOUBLE_EQ(t.headroom(4, 100), 6.5);     // cycle 4 + free tail
    EXPECT_DOUBLE_EQ(t.headroom(50, 10), 9.0);     // wholly past the horizon
}

TEST(tracker, headroom_is_the_largest_fitting_power)
{
    power_tracker t(9.0);
    t.reserve(0, 4, 2.7);
    t.reserve(1, 2, 3.3);
    for (int start = 0; start < 8; ++start)
        for (int duration = 0; duration <= 6; ++duration) {
            const double h = t.headroom(start, duration);
            EXPECT_TRUE(t.fits(start, duration, h))
                << "start " << start << " duration " << duration;
            // Anything meaningfully above the headroom must not fit.
            if (duration > 0 && start < t.profile().cycle_count() &&
                t.used(start) > 0.0) {
                EXPECT_FALSE(
                    t.fits(start, duration, h + 3 * power_tracker::tolerance));
            }
        }
}

TEST(tracker, headroom_with_unbounded_cap_is_infinite)
{
    power_tracker t(unbounded_power);
    t.reserve(0, 3, 100.0);
    EXPECT_EQ(t.headroom(0, 3), unbounded_power);
}

TEST(tracker, headroom_rejects_bad_intervals)
{
    const power_tracker t(9.0);
    EXPECT_THROW(t.headroom(-1, 2), error);
    EXPECT_THROW(t.headroom(0, -2), error);
}

TEST(tracker, headroom_matches_linear_scan_on_random_ledgers)
{
    std::mt19937_64 rng(20260808);
    for (int trial = 0; trial < 10; ++trial) {
        const double cap = 5.0 + 0.5 * static_cast<double>(trial);
        power_tracker t(cap);
        std::uniform_int_distribution<int> start_d(0, 50);
        std::uniform_int_distribution<int> dur_d(1, 6);
        std::uniform_real_distribution<double> pow_d(0.1, cap / 3.0);
        for (int step = 0; step < 60; ++step) {
            const int s = start_d(rng);
            const int d = dur_d(rng);
            const double p = pow_d(rng);
            if (t.fits(s, d, p)) t.reserve(s, d, p);
            const int qs = start_d(rng);
            const int qd = dur_d(rng) - 1;
            ASSERT_DOUBLE_EQ(t.headroom(qs, qd), linear_headroom(t, qs, qd))
                << "trial " << trial << " step " << step;
        }
    }
}

TEST(tracker, restore_interval_tolerates_captured_cycles_past_horizon)
{
    power_tracker t(5.0);
    t.reserve(0, 2, 2.0);
    // Capture reaches past the horizon; those cycles read as zero and
    // restoring them (without any intervening growth) is a no-op.
    const std::vector<double> saved = t.interval_values(1, 5);
    t.restore_interval(1, saved);
    EXPECT_DOUBLE_EQ(t.used(1), 2.0);
    EXPECT_EQ(t.profile().cycle_count(), 2);
}

} // namespace
} // namespace phls
