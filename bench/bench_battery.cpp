// E4 -- the paper's motivation (its §1, citing Luo/Jha and Lahiri et
// al.): flattening the power profile extends battery lifetime, by up to
// 20-30 % for low-quality cells, even at comparable energy.
//
// Setup: synthesise each benchmark twice -- a conventional speed-first
// design (fastest modules, no power awareness: the spiky profile) and the
// battery-aware design at the tightest feasible cap (flat profile).  The
// periodic current loads drive three battery models at two timescales:
//
//   * circuit timescale (1 ms cycles): the ideal bucket isolates the pure
//     energy effect; Peukert's law adds the instantaneous-rate penalty
//     that punishes spikes.
//   * task timescale (0.5 s steps, same profile shapes): the
//     Rakhmatov-Vrudhula diffusion cell resolves spikes that are
//     comparable to its diffusion time constants (smaller beta = worse
//     cell).  At the circuit timescale, ms spikes average out inside a
//     diffusion cell -- a genuine physical effect; the paper's cited
//     20-30 % gains come from task-level scheduling work, which this
//     scenario mirrors.
#include <iostream>

#include "battery/lifetime.h"
#include "cdfg/benchmarks.h"
#include "flow/flow.h"
#include "support/strings.h"
#include "support/table.h"
#include "../tests/sweep_util.h"

namespace {

constexpr double voltage = 1.0;

} // namespace

int main()
{
    using namespace phls;
    const module_library lib = table1_library();

    std::cout << "=== E4: battery lifetime, capped vs. uncapped designs ===\n";

    bool peukert_rewards_flatness = true;
    bool diffusion_rewards_flatness = true;
    for (const auto& [bench, T] : {std::pair<const char*, int>{"hal", 17},
                                   std::pair<const char*, int>{"elliptic", 22}}) {
        const graph g = benchmark_by_name(bench);

        // Baseline: conventional speed-first design (spiky profile).
        synthesis_options speed_first;
        speed_first.try_both_prospects = false;
        speed_first.policy = prospect_policy::fastest_fit;
        const flow_report base =
            flow::on(g).with_library(lib).latency(T).options(speed_first).run();
        if (!base.st.ok()) {
            std::cout << "unconstrained synthesis failed: " << base.st.to_string() << '\n';
            return 1;
        }
        const double peak0 = base.peak;

        // Battery-aware design: tightest feasible cap below the baseline.
        // The descending cap ladder is explored on one session; the result
        // is the last feasible rung before the first infeasible one.
        const flow f = flow::on(g).with_library(lib).latency(T);
        std::vector<synthesis_constraints> ladder;
        for (double cap = 0.9 * peak0; cap >= 0.10 * peak0; cap -= 0.05 * peak0)
            ladder.push_back({T, cap});
        flow_report capped;
        for (const flow_report& r : explore_all(f, ladder)) {
            if (!r.st.ok()) break;
            capped = r;
        }
        if (!capped.st.ok() || !capped.has_design) {
            std::cout << "no capped design found below the baseline peak\n";
            return 1;
        }

        const power_profile spiky_profile = base.dp.sched.profile(lib);
        const power_profile flat_profile = capped.dp.sched.profile(lib);
        std::cout << strf("\n--- %s (T=%d): peak %.2f -> %.2f, energy/period %.2f -> %.2f, "
                          "area %.0f -> %.0f ---\n",
                          bench, T, peak0, capped.dp.peak_power(lib),
                          spiky_profile.energy(), flat_profile.energy(),
                          base.dp.area.total(), capped.dp.area.total());

        // --- Circuit timescale: ideal bucket vs Peukert. ---
        {
            const double dt = 1e-3;
            const load_profile spiky = to_load(spiky_profile, voltage, dt);
            const load_profile flat = to_load(flat_profile, voltage, dt);
            const double capacity = spiky_profile.energy() * dt / voltage * 1e4;

            ascii_table t({"model (1 ms cycles)", "life spiky (s)", "life flat (s)", "gain"});
            t.set_align(0, align::left);
            const auto ideal = make_ideal_battery(capacity);
            const double iu = ideal->lifetime(spiky).seconds;
            const double ic = ideal->lifetime(flat).seconds;
            const double ideal_gain = 100.0 * (ic - iu) / iu;
            t.add_row({"ideal bucket (energy only)", strf("%.1f", iu), strf("%.1f", ic),
                       strf("%+.1f%%", ideal_gain)});
            double last_peukert_gain = 0.0;
            for (double k : {1.1, 1.2, 1.3}) {
                const auto peukert = make_peukert_battery(capacity, k);
                const double pu = peukert->lifetime(spiky).seconds;
                const double pc = peukert->lifetime(flat).seconds;
                last_peukert_gain = 100.0 * (pc - pu) / pu;
                t.add_row({strf("Peukert k=%.1f", k), strf("%.1f", pu), strf("%.1f", pc),
                           strf("%+.1f%%", last_peukert_gain)});
            }
            t.print(std::cout);
            std::cout << strf("rate-sensitivity bonus over the energy effect: %+.1f%%\n",
                              last_peukert_gain - ideal_gain);
            peukert_rewards_flatness =
                peukert_rewards_flatness && last_peukert_gain > ideal_gain;
        }

        // --- Task timescale: Rakhmatov-Vrudhula diffusion cell. ---
        {
            const double dt = 0.5;
            const load_profile spiky = to_load(spiky_profile, voltage, dt);
            const load_profile flat = to_load(flat_profile, voltage, dt);
            const double alpha = spiky_profile.energy() * dt / voltage * 100.0;

            ascii_table t({"model (0.5 s steps)", "life spiky (s)", "life flat (s)", "gain"});
            t.set_align(0, align::left);
            const auto ideal = make_ideal_battery(alpha);
            const double iu = ideal->lifetime(spiky).seconds;
            const double ic = ideal->lifetime(flat).seconds;
            const double ideal_gain = 100.0 * (ic - iu) / iu;
            t.add_row({"ideal bucket (energy only)", strf("%.0f", iu), strf("%.0f", ic),
                       strf("%+.1f%%", ideal_gain)});
            double worst_cell_gain = 0.0;
            for (double beta : {1.0, 0.3, 0.1}) {
                const auto rak = make_rakhmatov_battery(alpha, beta);
                const double ru = rak->lifetime(spiky).seconds;
                const double rc = rak->lifetime(flat).seconds;
                worst_cell_gain = 100.0 * (rc - ru) / ru;
                t.add_row({strf("Rakhmatov beta=%.1f", beta), strf("%.0f", ru),
                           strf("%.0f", rc), strf("%+.1f%%", worst_cell_gain)});
            }
            t.print(std::cout);
            std::cout << strf("lowest-quality diffusion cell gain: %+.1f%% "
                              "(ideal: %+.1f%%; paper cites 20-30%%)\n",
                              worst_cell_gain, ideal_gain);
            diffusion_rewards_flatness =
                diffusion_rewards_flatness && worst_cell_gain > ideal_gain;
        }
    }
    const bool ok = peukert_rewards_flatness && diffusion_rewards_flatness;
    std::cout << "\npaper shape (rate-sensitive cells reward flattening beyond the "
                 "pure energy effect): "
              << (ok ? "YES" : "NO") << '\n';
    return ok ? 0 : 1;
}
