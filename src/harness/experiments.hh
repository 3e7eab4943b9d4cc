/**
 * @file
 * Drivers that regenerate the paper's evaluation artifacts: the
 * workload x model simulation matrix behind Figure 18 and Tables II
 * and III, and the formatted tables themselves.
 */

#ifndef GAM_HARNESS_EXPERIMENTS_HH
#define GAM_HARNESS_EXPERIMENTS_HH

#include <string>
#include <vector>

#include "model/kind.hh"
#include "sim/core.hh"
#include "workload/workloads.hh"

namespace gam::harness
{

/** One (workload, model) simulation result. */
struct RunResult
{
    std::string workload;
    model::ModelKind model;
    sim::SimStats stats;
};

/** Simulation-campaign configuration. */
struct CampaignConfig
{
    sim::CoreParams core;
    mem::MemSystemParams mem;
    /** Committed uops used to warm caches and predictors. */
    uint64_t warmupUops = 20000;
    /** Print one progress line per run to stderr. */
    bool verbose = false;
};

/** Simulate one workload under one model. */
RunResult runOne(const workload::WorkloadSpec &spec, model::ModelKind kind,
                 const CampaignConfig &config = {});

/** Simulate the full workload suite under @p models. */
std::vector<RunResult>
runCampaign(const std::vector<model::ModelKind> &models,
            const CampaignConfig &config = {});

/** Fetch one result from a campaign. */
const RunResult &find(const std::vector<RunResult> &results,
                      const std::string &workload, model::ModelKind kind);

/** Figure 18: per-workload uPC of each model normalised to GAM. */
std::string formatFig18(const std::vector<RunResult> &results);

/** Table II: kills and stalls per 1K uops under GAM and ARM. */
std::string formatTable2(const std::vector<RunResult> &results);

/** Table III: load-load forwarding effects of Alpha* vs GAM. */
std::string formatTable3(const std::vector<RunResult> &results);

/** Table I: the simulated processor configuration. */
std::string formatTable1(const sim::CoreParams &core,
                         const mem::MemSystemParams &mem);

} // namespace gam::harness

#endif // GAM_HARNESS_EXPERIMENTS_HH
