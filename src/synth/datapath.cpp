#include "synth/datapath.h"

#include <algorithm>
#include <sstream>

#include "rtl/interconnect.h"
#include "support/errors.h"
#include "support/strings.h"
#include "support/table.h"

namespace phls {

int datapath::add_instance(module_id m)
{
    fu_instance inst;
    inst.index = static_cast<int>(instances.size());
    inst.module = m;
    instances.push_back(std::move(inst));
    return instances.back().index;
}

void datapath::bind(node_id v, int inst, int start)
{
    check(inst >= 0 && inst < static_cast<int>(instances.size()),
          "datapath::bind: invalid instance index");
    check(instance_of[v.index()] < 0, "datapath::bind: node is already bound");
    instance_of[v.index()] = inst;
    instances[static_cast<std::size_t>(inst)].ops.push_back(v);
    sched.set_start(v, start);
    sched.set_module(v, instances[static_cast<std::size_t>(inst)].module);
}

std::vector<module_id> datapath::instance_modules() const
{
    std::vector<module_id> out;
    out.reserve(instances.size());
    for (const fu_instance& inst : instances) out.push_back(inst.module);
    return out;
}

area_breakdown datapath::area_of(const graph& g, const module_library& lib,
                                 const cost_model& costs) const
{
    area_breakdown out;
    for (const fu_instance& inst : instances) out.fu += lib.module(inst.module).area;
    const interconnect_stats stats =
        estimate_interconnect(g, lib, sched, instance_of, costs);
    out.registers = stats.register_area;
    out.muxes = stats.mux_area;
    return out;
}

std::string datapath::report(const graph& g, const module_library& lib) const
{
    std::ostringstream os;
    os << "datapath " << name << '\n';
    ascii_table t({"instance", "module", "area", "ops (op@start)"});
    t.set_align(3, align::left);
    for (const fu_instance& inst : instances) {
        std::vector<node_id> ops = inst.ops;
        std::sort(ops.begin(), ops.end(),
                  [&](node_id a, node_id b) { return sched.start(a) < sched.start(b); });
        std::string ops_text;
        for (node_id v : ops) {
            if (!ops_text.empty()) ops_text += ' ';
            ops_text += strf("%s@%d", g.label(v).c_str(), sched.start(v));
        }
        t.add_row({strf("u%d", inst.index), lib.module(inst.module).name,
                   strf("%.0f", lib.module(inst.module).area), ops_text});
    }
    t.print(os);
    os << strf("area: fu %.1f + registers %.1f + muxes %.1f = %.1f\n", area.fu,
               area.registers, area.muxes, area.total());
    os << strf("latency: %d cycles, peak power: %.2f, energy: %.2f\n", latency(lib),
               peak_power(lib), sched.profile(lib).energy());
    (void)g;
    return os.str();
}

} // namespace phls
