#include "harness/experiments.hh"

#include <cstdio>

#include <map>

#include "base/logging.hh"
#include "base/stats.hh"
#include "base/table.hh"
#include "sim/trace_gen.hh"

namespace gam::harness
{

using model::ModelKind;

RunResult
runOne(const workload::WorkloadSpec &spec, ModelKind kind,
       const CampaignConfig &config)
{
    workload::BuiltWorkload built = spec.build();
    sim::DynTrace trace = sim::generateTrace(built.program,
                                             std::move(built.mem),
                                             spec.maxUops);
    GAM_ASSERT(!trace.uops.empty(), "workload '%s' produced no uops",
               spec.name.c_str());
    sim::Core core(trace, kind, config.core, config.mem);
    RunResult r;
    r.workload = spec.name;
    r.model = kind;
    r.stats = core.run(config.warmupUops);
    if (config.verbose) {
        std::fprintf(stderr, "  %-14s %-7s uPC=%.3f (%llu uops, %llu "
                     "cycles)\n", spec.name.c_str(),
                     model::modelName(kind).c_str(), r.stats.upc(),
                     (unsigned long long)r.stats.committedUops,
                     (unsigned long long)r.stats.cycles);
    }
    return r;
}

std::vector<RunResult>
runCampaign(const std::vector<ModelKind> &models,
            const CampaignConfig &config)
{
    std::vector<RunResult> results;
    for (const auto &spec : workload::workloadSuite())
        for (ModelKind kind : models)
            results.push_back(runOne(spec, kind, config));
    return results;
}

const RunResult &
find(const std::vector<RunResult> &results, const std::string &workload,
     ModelKind kind)
{
    for (const auto &r : results)
        if (r.workload == workload && r.model == kind)
            return r;
    fatal("no result for (%s, %s)", workload.c_str(),
          model::modelName(kind).c_str());
}

std::string
formatFig18(const std::vector<RunResult> &results)
{
    const ModelKind others[] = {ModelKind::ARM, ModelKind::GAM0,
                                ModelKind::AlphaStar};
    Table t;
    t.header({"benchmark", "GAM uPC", "ARM", "GAM0", "Alpha*"});

    std::map<ModelKind, std::vector<double>> normalized;
    for (const auto &spec : workload::workloadSuite()) {
        const double gam_upc =
            find(results, spec.name, ModelKind::GAM).stats.upc();
        std::vector<std::string> row{spec.name, Table::num(gam_upc)};
        for (ModelKind kind : others) {
            const double upc = find(results, spec.name, kind).stats.upc();
            const double norm = gam_upc > 0 ? upc / gam_upc : 0.0;
            normalized[kind].push_back(norm);
            row.push_back(Table::num(norm, 4));
        }
        t.row(std::move(row));
    }
    t.separator();
    std::vector<std::string> avg{"average", ""};
    for (ModelKind kind : others)
        avg.push_back(Table::num(Summary::of(normalized[kind]).average, 4));
    t.row(std::move(avg));

    std::string out =
        "Figure 18: uPC normalized to GAM (columns ARM/GAM0/Alpha*)\n";
    out += t.render();
    out += "\nPaper shape: every normalized uPC is ~1.0 (avg gain "
           "< 0.3%, never > 3%).\n";
    return out;
}

std::string
formatTable2(const std::vector<RunResult> &results)
{
    std::vector<double> gam_kills, gam_stalls, arm_stalls;
    for (const auto &spec : workload::workloadSuite()) {
        const auto &gam = find(results, spec.name, ModelKind::GAM).stats;
        const auto &arm = find(results, spec.name, ModelKind::ARM).stats;
        gam_kills.push_back(gam.perKuops(gam.saLdLdKills));
        gam_stalls.push_back(gam.perKuops(gam.saLdLdStalls));
        arm_stalls.push_back(arm.perKuops(arm.saLdLdStalls));
    }
    const Summary k = Summary::of(gam_kills);
    const Summary s = Summary::of(gam_stalls);
    const Summary a = Summary::of(arm_stalls);

    Table t;
    t.header({"event (per 1K uOPs)", "Average", "Max"});
    t.row({"Kills in GAM", Table::num(k.average, 3),
           Table::num(k.maximum, 3)});
    t.row({"Stalls in GAM", Table::num(s.average, 3),
           Table::num(s.maximum, 3)});
    t.row({"Stalls in ARM", Table::num(a.average, 3),
           Table::num(a.maximum, 3)});

    std::string out = "Table II: kills and stalls caused by "
                      "same-address load-load ordering\n";
    out += t.render();
    out += "\nPaper shape: both kills and stalls are rare "
           "(avg ~0.2/1K uOPs; max a few per 1K).\n";
    return out;
}

std::string
formatTable3(const std::vector<RunResult> &results)
{
    std::vector<double> ll_fwds, saved_misses;
    for (const auto &spec : workload::workloadSuite()) {
        const auto &alpha =
            find(results, spec.name, ModelKind::AlphaStar).stats;
        const auto &gam = find(results, spec.name, ModelKind::GAM).stats;
        ll_fwds.push_back(alpha.perKuops(alpha.llForwards));
        const double delta = gam.perKuops(gam.l1dLoadMisses)
            - alpha.perKuops(alpha.l1dLoadMisses);
        saved_misses.push_back(delta);
    }
    const Summary f = Summary::of(ll_fwds);
    const Summary m = Summary::of(saved_misses);

    Table t;
    t.header({"event (per 1K uOPs)", "Average", "Max"});
    t.row({"Load-load forwardings", Table::num(f.average, 2),
           Table::num(f.maximum, 2)});
    t.row({"Reduced L1 load misses over GAM", Table::num(m.average, 3),
           Table::num(m.maximum, 3)});

    std::string out = "Table III: effects of load-load forwardings "
                      "in Alpha*\n";
    out += t.render();
    out += "\nPaper shape: forwardings are frequent (avg ~22/1K) but "
           "almost never remove an L1 miss (~0.01/1K).\n";
    return out;
}

std::string
formatTable1(const sim::CoreParams &core, const mem::MemSystemParams &mem)
{
    Table t;
    t.header({"parameter", "value"});
    t.row({"Width", formatString("%d-way fetch/rename/commit, %d-way "
                                 "issue", core.fetchWidth,
                                 core.issueWidth)});
    t.row({"Function units",
           formatString("%d IntALU, %d IntMul, %d IntDiv, %d FpALU, "
                        "%d FpMul, %d FpDiv, %d mem ports", core.intAlu,
                        core.intMul, core.intDiv, core.fpAlu, core.fpMul,
                        core.fpDiv, core.memPorts)});
    t.row({"Buffers", formatString("%d ROB, %d RS, %d LQ, %d SQ",
                                   core.robSize, core.rsSize,
                                   core.lqSize, core.sqSize)});
    auto cache_row = [&](const mem::CacheParams &c) {
        t.row({c.name, formatString("%u KB, %u-way, %u-cycle, %u MSHRs",
                                    c.sizeBytes / 1024, c.assoc,
                                    c.hitLatency, c.mshrs)});
    };
    cache_row(mem.l1i);
    cache_row(mem.l1d);
    cache_row(mem.l2);
    cache_row(mem.l3);
    t.row({"Memory", formatString("%llu-cycle latency, %.2f B/cycle "
                                  "(12.8 GB/s at 2.5 GHz)",
                                  (unsigned long long)mem.dramLatency,
                                  mem.dramBytesPerCycle)});
    return "Table I: simulated processor parameters\n" + t.render();
}

} // namespace gam::harness
