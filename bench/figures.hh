/**
 * @file
 * The figure driver's interface. Every figure, table and ablation
 * reproduction is one entry of the table in figures.cc, and one binary
 * (`figures`) runs them all: CMake links each entry's name
 * (fig16_memory_expansion, ablation_ppt, ...) to that binary, and it
 * runs the entry named by argv[0].
 *
 * The driver owns what the entries share: the option parser of
 * bench_common.hh (with the entry's extra flag, if any), the banner,
 * the sweep (Run::sweep), the closing note and the --csv/--trace-out
 * export. An entry's body builds its configs, sweeps them and prints
 * its tables; the bodies live in three files, declared below.
 *
 * To add a figure, add its entry to the table and its name to
 * bench/CMakeLists.txt.
 */

#ifndef TPP_BENCH_FIGURES_HH
#define TPP_BENCH_FIGURES_HH

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "bench_common.hh"

namespace tpp {
namespace bench {

using Configs = std::vector<ExperimentConfig>;
using Results = std::vector<ExperimentResult>;

/** One invocation of an entry. */
struct Run {
    BenchOptions opt;
    /** What sweep() ran, in submission order: the export's rows. */
    Configs cfgs;
    Results results;

    bool smoke() const { return opt.extra == "smoke"; }

    /** Run `configs` on the --jobs workers; returns their results. */
    const Results &sweep(Configs configs);
};

/** A tiered machine at `ratio` (local:CXL) running `workload` under
 *  `policy`, with the run-wide options applied. */
ExperimentConfig tieredConfig(const BenchOptions &opt,
                              const char *workload, const char *policy,
                              const char *ratio);

/** One table row: the cells it brings, the index of its run in the
 *  sweep's results and, in the evaluation grid, of the all-local run it
 *  is compared against. */
struct Row {
    std::vector<std::string> cells;
    std::size_t run;
    std::optional<std::size_t> baseline = std::nullopt;
};

/**
 * Print a table with one row per Row, under "-- title --" and followed
 * by a blank line when titled. A header that names a metric ("local
 * traffic", "migrated", ...) shows that metric of the row's run,
 * defined once in figures.cc for every table; the row's own cells fill
 * the other headers, in order.
 */
void printTable(const std::vector<std::string> &header,
                const std::vector<Row> &rows, const Results &results,
                const char *title = nullptr);

/** Print "WARNING: <printf fmt>" unless a claim holds. The run still
 *  exits 0. */
void checkClaim(bool holds, const char *fmt, ...)
    __attribute__((format(printf, 2, 3)));

// characterisation.cc: Figure 2 and the all-local studies of
// Figures 7-11 (§3).
void tierLatency(Run &run);
void temperature(Run &run);
void typeTemperature(Run &run);
void usageOverTime(Run &run);
void throughputSensitivity(Run &run);
void reaccessCdf(Run &run);

// evaluation.cc: the paper's evaluation (§6).

/** One workload at one local:CXL ratio. A titled case prints its own
 *  table under "-- title --"; untitled cases share one table. */
struct Case {
    const char *workload;
    const char *ratio;
    const char *title = nullptr;
};

/** Figures 15, 16 and 19, Table 1 and the policy zoo: each case's
 *  tiered arms, one per policy, against the case's all-local run. */
struct Grid {
    std::vector<Case> cases;
    std::vector<const char *> policies;
    /** Besides metrics, "workload" (or "application"), "config" (the
     *  ratio) and "policy" columns. */
    std::vector<std::string> header;
    /** Applied to every tiered arm once its policy is set. */
    void (*tweak)(ExperimentConfig &) = nullptr;
};

/** The body that sweeps and prints `grid`. */
std::function<void(Run &)> gridBody(Grid grid);
void decouplingAblation(Run &run);
void lruFilterAblation(Run &run);

// ablations.cc: the extensions beyond the paper.
void designSweeps(Run &run);
void migrationEngine(Run &run);
void hotnessSources(Run &run);
void memcgProtection(Run &run);
void openLoopTail(Run &run);
void tierHierarchy(Run &run);
void pingPongThrottle(Run &run);
void phaseAdaptive(Run &run);

} // namespace bench
} // namespace tpp

#endif // TPP_BENCH_FIGURES_HH
