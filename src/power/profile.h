// Per-cycle power profiles.
//
// The paper's power constraint is on *power per clock cycle*: the sum of
// the per-cycle power of all functional units executing in that cycle
// (Table 1's P column).  A power_profile is that sum, cycle by cycle.
#pragma once

#include <string>
#include <vector>

namespace phls {

/// Power drawn in each clock cycle of a schedule.
class power_profile {
public:
    power_profile() = default;
    explicit power_profile(int cycles) : cycles_(static_cast<std::size_t>(cycles), 0.0) {}
    explicit power_profile(std::vector<double> values) : cycles_(std::move(values)) {}

    int cycle_count() const { return static_cast<int>(cycles_.size()); }

    double at(int cycle) const;

    /// Adds `power` over cycles [start, start+duration); grows as needed.
    void deposit(int start, int duration, double power);

    /// Removes a previous deposit (no shrinking; values may reach 0).
    void withdraw(int start, int duration, double power);

    /// Drops every cycle, keeping the buffer for later deposits.
    void clear() { cycles_.clear(); }

    /// Overwrites [start, start+count) with previously captured values --
    /// the bit-exact unwind of deposits over that interval (withdraw()
    /// re-subtracts and can drift in the last ulp).  The interval must
    /// lie within the current horizon.
    void overwrite(int start, const double* values, int count);

    double peak() const;
    double average() const;
    /// Sum over cycles (energy in power-units * cycles).
    double energy() const;

    const std::vector<double>& values() const { return cycles_; }

    /// Multi-line ASCII bar chart (one row per cycle), used by the
    /// Figure 1 bench; `cap` draws the constraint line when finite.
    std::string ascii_chart(double cap, int width = 60) const;

private:
    std::vector<double> cycles_;
};

} // namespace phls
