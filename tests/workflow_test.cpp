// Unit + property tests for the workflow DAG, parsers, and generators.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <span>

#include "json/json.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"
#include "workflow/genomes.hpp"
#include "workflow/random_dag.hpp"
#include "workflow/swarp.hpp"
#include "workflow/wfformat.hpp"
#include "workflow/workflow.hpp"

namespace bbsim::wf {
namespace {

using Names = std::vector<std::string>;

/// Query results compare as name sequences.
Names task_names(const Workflow& w, std::span<const TaskId> ids) {
  Names out;
  for (const TaskId t : ids) out.push_back(w.task(t).name);
  return out;
}

Names file_names(const Workflow& w, std::span<const FileId> ids) {
  Names out;
  for (const FileId f : ids) out.push_back(w.file(f).name);
  return out;
}

Names parents(const Workflow& w, const std::string& task) {
  return task_names(w, w.parents(w.task_id(task)));
}

Names consumers(const Workflow& w, const std::string& file) {
  return task_names(w, w.consumers(w.file_id(file)));
}

Workflow diamond() {
  // a -> {b, c} -> d through files.
  Workflow w;
  w.add_file({"in", 10});
  w.add_file({"ab", 10});
  w.add_file({"ac", 10});
  w.add_file({"bd", 10});
  w.add_file({"cd", 10});
  w.add_file({"out", 10});
  w.add_task({"a", "t", 1e9, 0, 1, {"in"}, {"ab", "ac"}});
  w.add_task({"b", "t", 1e9, 0, 1, {"ab"}, {"bd"}});
  w.add_task({"c", "t", 1e9, 0, 1, {"ac"}, {"cd"}});
  w.add_task({"d", "t", 1e9, 0, 1, {"bd", "cd"}, {"out"}});
  return w;
}

TEST(Workflow, StructureQueriesOnDiamond) {
  const Workflow w = diamond();
  w.validate();
  EXPECT_EQ(w.task_count(), 4u);
  EXPECT_EQ(w.file_count(), 6u);
  EXPECT_EQ(task_names(w, w.entry_tasks()), (Names{"a"}));
  EXPECT_EQ(task_names(w, w.exit_tasks()), (Names{"d"}));
  EXPECT_EQ(file_names(w, w.input_files()), (Names{"in"}));
  EXPECT_EQ(file_names(w, w.output_files()), (Names{"out"}));
  EXPECT_EQ(w.intermediate_files().size(), 4u);
  EXPECT_EQ(w.task(*w.producer(w.file_id("ab"))).name, "a");
  EXPECT_FALSE(w.producer(w.file_id("in")).has_value());
  EXPECT_EQ(consumers(w, "in"), (Names{"a"}));
  const Names parents_d = parents(w, "d");
  EXPECT_EQ(std::set<std::string>(parents_d.begin(), parents_d.end()),
            (std::set<std::string>{"b", "c"}));
  EXPECT_EQ(w.critical_path_length(), 3u);
}

TEST(Workflow, TopologicalOrderRespectsEdges) {
  const Workflow w = diamond();
  const Names order = task_names(w, w.topological_order());
  std::map<std::string, std::size_t> pos;
  for (std::size_t i = 0; i < order.size(); ++i) pos[order[i]] = i;
  EXPECT_LT(pos["a"], pos["b"]);
  EXPECT_LT(pos["a"], pos["c"]);
  EXPECT_LT(pos["b"], pos["d"]);
  EXPECT_LT(pos["c"], pos["d"]);
}

TEST(Workflow, CycleDetected) {
  Workflow w;
  w.add_file({"x", 1});
  w.add_file({"y", 1});
  w.add_task({"a", "t", 1, 0, 1, {"y"}, {"x"}});
  w.add_task({"b", "t", 1, 0, 1, {"x"}, {"y"}});
  EXPECT_THROW(w.topological_order(), util::InvariantError);
}

/// Creation order merge, z, a, b; name order a, b, merge, z; topological
/// order z, a, b, merge. The control dependency a -> merge repeats the
/// x_a file edge; b -> merge is a new edge.
Workflow scrambled() {
  Workflow w;
  w.add_file({"final", 1});
  w.add_file({"x_z", 1});
  w.add_file({"x_a", 1});
  w.add_file({"y_b", 1});
  w.add_file({"in2", 1});
  w.add_file({"in1", 1});
  w.add_task({"merge", "t", 1, 0, 1, {"x_z", "x_a"}, {"final"}});
  w.add_task({"z", "t", 1, 0, 1, {"in2", "in1"}, {"x_z"}});
  w.add_task({"a", "t", 1, 0, 1, {"in1"}, {"x_a"}});
  w.add_task({"b", "t", 1, 0, 1, {"x_a"}, {"y_b"}});
  w.add_control_dep("a", "merge");
  w.add_control_dep("b", "merge");
  return w;
}

TEST(Workflow, AdjacencyOrdersArePinned) {
  // Readers follow task creation; edges follow file edges (task creation,
  // then input order) and then control dependencies, de-duplicated.
  const Workflow w = scrambled();
  w.validate();
  // Ids are creation positions.
  EXPECT_EQ(w.task_id("merge"), 0u);
  EXPECT_EQ(w.task_id("b"), 3u);
  EXPECT_EQ(w.file_id("in1"), 5u);
  EXPECT_EQ(task_names(w, w.consumers(w.file_id("in1"))), (Names{"z", "a"}));
  EXPECT_EQ(task_names(w, w.consumers(w.file_id("x_a"))), (Names{"merge", "b"}));
  EXPECT_EQ(task_names(w, w.children(w.task_id("a"))), (Names{"merge", "b"}));
  EXPECT_EQ(task_names(w, w.children(w.task_id("z"))), (Names{"merge"}));
  EXPECT_EQ(task_names(w, w.parents(w.task_id("merge"))), (Names{"z", "a", "b"}));
  EXPECT_EQ(task_names(w, w.parents(w.task_id("b"))), (Names{"a"}));
  EXPECT_EQ(task_names(w, w.topological_order()), (Names{"z", "a", "b", "merge"}));
  EXPECT_EQ(task_names(w, w.entry_tasks()), (Names{"z", "a"}));
  EXPECT_EQ(file_names(w, w.input_files()), (Names{"in2", "in1"}));
  EXPECT_EQ(file_names(w, w.inputs(w.task_id("z"))), (Names{"in2", "in1"}));
  EXPECT_EQ(file_names(w, w.outputs(w.task_id("merge"))), (Names{"final"}));
}

TEST(Workflow, ControlDepCycleDetected) {
  Workflow w;
  w.add_task({"a", "t", 1, 0, 1, {}, {}});
  w.add_task({"b", "t", 1, 0, 1, {}, {}});
  w.add_control_dep("a", "b");
  w.add_control_dep("b", "a");
  EXPECT_THROW(w.validate(), util::InvariantError);
}

TEST(Workflow, SingleWriterEnforced) {
  Workflow w;
  w.add_file({"f", 1});
  w.add_task({"a", "t", 1, 0, 1, {}, {"f"}});
  w.add_task({"b", "t", 1, 0, 1, {}, {"f"}});
  EXPECT_THROW(w.validate(), util::InvariantError);
}

TEST(Workflow, ValidationCatchesMistakes) {
  Workflow w;
  w.add_file({"f", 1});
  EXPECT_THROW(w.add_task({"", "t", 1, 0, 1, {}, {}}), util::ConfigError);
  EXPECT_THROW(w.add_task({"t", "t", -1, 0, 1, {}, {}}), util::ConfigError);
  EXPECT_THROW(w.add_task({"t", "t", 1, 1.5, 1, {}, {}}), util::ConfigError);
  EXPECT_THROW(w.add_task({"t", "t", 1, 0, 0, {}, {}}), util::ConfigError);
  EXPECT_THROW(w.add_file({"g", -1}), util::ConfigError);

  w.add_task({"t", "t", 1, 0, 1, {"missing"}, {}});
  EXPECT_THROW(w.validate(), util::ConfigError);

  Workflow w2;
  w2.add_file({"f", 1});
  w2.add_task({"t", "t", 1, 0, 1, {"f"}, {"f"}});  // reads and writes same file
  EXPECT_THROW(w2.validate(), util::ConfigError);

  Workflow w3;
  w3.add_task({"t", "t", 1, 0, 1, {}, {}});
  w3.add_control_dep("t", "ghost");
  EXPECT_THROW(w3.validate(), util::ConfigError);

  Workflow w4;
  w4.add_task({"t", "t", 1, 0, 1, {}, {}});
  EXPECT_THROW(w4.add_task({"t", "t", 1, 0, 1, {}, {}}), util::ConfigError);
}

TEST(Workflow, Aggregates) {
  const Workflow w = diamond();
  EXPECT_DOUBLE_EQ(w.total_data_bytes(), 60.0);
  EXPECT_DOUBLE_EQ(w.total_flops(), 4e9);
  EXPECT_DOUBLE_EQ(w.input_data_bytes(), 10.0);
}

// --------------------------------------------------------------- generators

TEST(Swarp, StructureMatchesPaperFigure2) {
  SwarpConfig cfg;
  cfg.pipelines = 3;
  const Workflow w = make_swarp(cfg);
  // 1 stage-in + 2 tasks per pipeline.
  EXPECT_EQ(w.task_count(), 1u + 2u * 3u);
  EXPECT_EQ(task_names(w, w.entry_tasks()), (Names{"stage_in"}));
  // Each resample depends on stage_in only; each combine on its resample.
  EXPECT_EQ(parents(w, "resample_001"), (Names{"stage_in"}));
  EXPECT_EQ(parents(w, "combine_001"), (Names{"resample_001"}));
  EXPECT_EQ(w.critical_path_length(), 3u);
  // 16 images + 16 weights per pipeline as inputs.
  EXPECT_EQ(w.input_files().size(), 3u * 32u);
}

TEST(Swarp, FileSizesMatchPaper) {
  const Workflow w = make_swarp({});
  EXPECT_DOUBLE_EQ(w.file("p000_img_00.fits").size, 32.0 * 1024 * 1024);
  EXPECT_DOUBLE_EQ(w.file("p000_wgt_00.fits").size, 16.0 * 1024 * 1024);
  // Input data: 16*32 + 16*16 MiB = 768 MiB per pipeline.
  EXPECT_DOUBLE_EQ(w.input_data_bytes(), 768.0 * 1024 * 1024);
}

TEST(Swarp, TaskProfiles) {
  const Workflow w = make_swarp({});
  const Task& r = w.task("resample_000");
  EXPECT_DOUBLE_EQ(r.flops, 48.0 * 36.80e9);
  EXPECT_EQ(r.requested_cores, 32);
  const Task& c = w.task("combine_000");
  EXPECT_GT(c.alpha, r.alpha);  // combine parallelises worse (paper Fig. 6)
  const Task& s = w.task("stage_in");
  EXPECT_DOUBLE_EQ(s.flops, 0.0);
  EXPECT_EQ(s.requested_cores, 1);
}

TEST(Swarp, NoStageInOption) {
  SwarpConfig cfg;
  cfg.with_stage_in = false;
  cfg.pipelines = 2;
  const Workflow w = make_swarp(cfg);
  EXPECT_EQ(w.task_count(), 4u);
  EXPECT_EQ(w.entry_tasks().size(), 2u);
}

TEST(Genomes, TaskCountMatchesPaper) {
  const Workflow w = make_1000genomes({});
  EXPECT_EQ(w.task_count(), 903u);  // paper Section IV-C
}

TEST(Genomes, DataFootprintMatchesPaper) {
  const Workflow w = make_1000genomes({});
  // ~67 GB total, ~52 GB input (paper: "total workflow data footprint of
  // ~67 GB", "total input data is about 52 GB, i.e. 77%").
  EXPECT_NEAR(w.total_data_bytes() / 1e9, 67.0, 2.0);
  EXPECT_NEAR(w.input_data_bytes() / 1e9, 52.0, 1.5);
  EXPECT_NEAR(w.input_data_bytes() / w.total_data_bytes(), 0.77, 0.03);
}

TEST(Genomes, StructureMatchesFigure12) {
  GenomesConfig cfg;
  cfg.chromosomes = 2;
  const Workflow w = make_1000genomes(cfg);
  // per chromosome: 25 ind + merge + sifting + 7 pair + 7 freq, plus one
  // global populations task.
  EXPECT_EQ(w.task_count(), 2u * 41u + 1u);
  // pair tasks depend on merge, sifting and populations.
  const Names pair_parents = parents(w, "pair_overlap_c00_p0");
  const std::set<std::string> pset(pair_parents.begin(), pair_parents.end());
  EXPECT_TRUE(pset.count("individuals_merge_c00"));
  EXPECT_TRUE(pset.count("sifting_c00"));
  EXPECT_TRUE(pset.count("populations"));
  EXPECT_EQ(w.critical_path_length(), 3u);  // ind -> merge -> pair
}

TEST(RandomDag, ValidatesAndIsDeterministic) {
  RandomDagConfig cfg;
  util::Rng rng1(7);
  util::Rng rng2(7);
  const Workflow a = make_random_layered(cfg, rng1);
  const Workflow b = make_random_layered(cfg, rng2);
  a.validate();
  EXPECT_EQ(a.task_count(), b.task_count());
  EXPECT_EQ(a.total_data_bytes(), b.total_data_bytes());
}

class RandomDagProperty : public ::testing::TestWithParam<int> {};

TEST_P(RandomDagProperty, AlwaysAcyclicSingleWriterConnected) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()));
  RandomDagConfig cfg;
  cfg.levels = static_cast<int>(rng.uniform_int(1, 6));
  const Workflow w = make_random_layered(cfg, rng);
  w.validate();  // throws on violation
  // Every non-entry task has at least one parent (layer connectivity).
  for (TaskId t = 0; t < w.task_count(); ++t) {
    if (util::starts_with(w.task(t).name, "t_l00_")) continue;
    EXPECT_FALSE(w.parents(t).empty()) << w.task(t).name;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomDagProperty, ::testing::Range(0, 25));

// ------------------------------------------------------------------ formats

TEST(WfFormat, LegacyRoundTrip) {
  const Workflow original = make_swarp({});
  const json::Value doc = to_wfformat(original);
  const Workflow parsed = from_wfformat(doc);
  EXPECT_EQ(parsed.task_count(), original.task_count());
  EXPECT_EQ(parsed.file_count(), original.file_count());
  const Task& r1 = parsed.task("resample_000");
  const Task& r2 = original.task("resample_000");
  EXPECT_DOUBLE_EQ(r1.flops, r2.flops);
  EXPECT_DOUBLE_EQ(r1.alpha, r2.alpha);
  EXPECT_EQ(r1.inputs.size(), r2.inputs.size());
  EXPECT_EQ(parents(parsed, "combine_000"), parents(original, "combine_000"));
}

TEST(WfFormat, LegacyRuntimeToFlopsViaEq4) {
  const auto doc = json::parse(R"({
    "name": "t", "workflow": { "jobs": [
      {"name": "j", "runtime": 10.0, "cores": 4, "ioFraction": 0.25,
       "files": [{"name": "in", "size": 100, "link": "input"}]}
    ]}})");
  WfFormatOptions opt;
  opt.reference_core_speed = 1e9;
  const Workflow w = from_wfformat(doc, opt);
  // Eq (4): flops = p (1 - lambda) T(p) * speed = 4 * 0.75 * 10 * 1e9.
  EXPECT_DOUBLE_EQ(w.task("j").flops, 30e9);
}

TEST(WfFormat, ModernSpecificationLayout) {
  const auto doc = json::parse(R"({
    "name": "modern", "workflow": {
      "specification": {
        "tasks": [
          {"id": "t1", "inputFiles": ["f1"], "outputFiles": ["f2"]},
          {"id": "t2", "inputFiles": ["f2"], "outputFiles": [], "parents": ["t1"]}
        ],
        "files": [{"id": "f1", "sizeInBytes": 100}, {"id": "f2", "sizeInBytes": 200}]
      },
      "execution": {
        "tasks": [{"id": "t1", "runtimeInSeconds": 5, "coreCount": 2}]
      }
    }})");
  const Workflow w = from_wfformat(doc);
  EXPECT_EQ(w.task_count(), 2u);
  EXPECT_EQ(w.task("t1").requested_cores, 2);
  EXPECT_GT(w.task("t1").flops, 0.0);
  EXPECT_EQ(parents(w, "t2"), (Names{"t1"}));
  EXPECT_DOUBLE_EQ(w.file("f2").size, 200.0);
}

TEST(WfFormat, RejectsMalformedDocuments) {
  EXPECT_THROW(from_wfformat(json::parse(R"({"name": "x"})")), util::ParseError);
  EXPECT_THROW(from_wfformat(json::parse(R"({"workflow": {}})")), util::ParseError);
  EXPECT_THROW(from_wfformat(json::parse(
                   R"({"workflow": {"jobs": [{"runtime": 1}]}})")),
               util::ParseError);
}

TEST(WfFormat, FileRoundTripOnDisk) {
  const std::string path = ::testing::TempDir() + "/bbsim_wf_test.json";
  const Workflow original = make_1000genomes({.chromosomes = 1});
  save_workflow(path, original);
  const Workflow loaded = load_workflow(path);
  EXPECT_EQ(loaded.task_count(), original.task_count());
  EXPECT_DOUBLE_EQ(loaded.total_data_bytes(), original.total_data_bytes());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace bbsim::wf

// ------------------------------------------- extra generators and describe

#include "exec/engine.hpp"
#include "platform/presets.hpp"
#include "workflow/describe.hpp"
#include "workflow/montage.hpp"

namespace bbsim::wf {
namespace {

TEST(Montage, StructureIsFanInFanOut) {
  MontageConfig cfg;
  cfg.tiles = 8;
  const Workflow w = make_montage(cfg);
  w.validate();
  // 8 project + 7 difffit + 1 concat + 8 background + 1 add.
  EXPECT_EQ(w.task_count(), 8u + 7u + 1u + 8u + 1u);
  // mConcatFit fans in from every diff; mAdd from every corrected tile.
  EXPECT_EQ(parents(w, "mConcatFit").size(), 7u);
  EXPECT_EQ(parents(w, "mAdd").size(), 8u);
  // fits.tbl is a broadcast file read by all background tasks.
  EXPECT_EQ(consumers(w, "fits.tbl").size(), 8u);
  // Depth: project -> difffit -> concat -> background -> add.
  EXPECT_EQ(w.critical_path_length(), 5u);
  EXPECT_EQ(task_names(w, w.exit_tasks()), (Names{"mAdd"}));
}

TEST(Montage, RejectsTooFewTiles) {
  MontageConfig cfg;
  cfg.tiles = 1;
  EXPECT_THROW(make_montage(cfg), util::ConfigError);
}

TEST(CyberShake, StructureMatches) {
  CyberShakeConfig cfg;
  cfg.variations = 2;
  cfg.ruptures = 5;
  const Workflow w = make_cybershake(cfg);
  w.validate();
  // 2 extract + 2*5 seismogram + 2*5 peak + 1 zip.
  EXPECT_EQ(w.task_count(), 2u + 10u + 10u + 1u);
  EXPECT_EQ(parents(w, "ZipSeis").size(), 10u);
  // Each seismogram depends on its variation's extract only.
  EXPECT_EQ(parents(w, "Seismogram_1_003"), (Names{"ExtractSGT_1"}));
  EXPECT_EQ(w.critical_path_length(), 4u);
}

TEST(CyberShake, RunsOnEngine) {
  CyberShakeConfig cfg;
  cfg.variations = 2;
  cfg.ruptures = 3;
  const Workflow w = make_cybershake(cfg);
  exec::ExecutionConfig ecfg;
  ecfg.placement = exec::all_bb_policy();
  ecfg.stage_in_mode = exec::StageInMode::Instant;
  exec::Simulation sim(platform::cori_platform(), w, ecfg);
  const exec::Result r = sim.run();
  EXPECT_EQ(r.tasks.size(), w.task_count());
}

TEST(Describe, SummaryMatchesHandCounts) {
  const Workflow w = make_swarp({.pipelines = 2});
  const WorkflowSummary s = summarize(w);
  EXPECT_EQ(s.tasks, 5u);
  EXPECT_EQ(s.files, 2u * 66u);  // 64 in/out pairs + 2 coadds per pipeline
  EXPECT_EQ(s.levels, 3u);
  EXPECT_EQ(s.max_level_width, 2u);
  EXPECT_EQ(s.max_fan_in, 32u);
  EXPECT_EQ(s.max_fan_out, 1u);
  EXPECT_DOUBLE_EQ(s.total_bytes, w.total_data_bytes());
  EXPECT_DOUBLE_EQ(s.input_bytes + s.intermediate_bytes + s.output_bytes,
                   s.total_bytes);
  EXPECT_EQ(s.by_type.at("resample").count, 2u);
  EXPECT_EQ(s.by_type.at("resample").max_requested_cores, 32);
}

TEST(Describe, ReportMentionsKeyNumbers) {
  const std::string text = describe(make_swarp({}));
  EXPECT_NE(text.find("tasks 3"), std::string::npos);
  EXPECT_NE(text.find("resample"), std::string::npos);
  EXPECT_NE(text.find("max fan-in 32"), std::string::npos);
}

TEST(ScaleDag, GeneratesExactTaskCountWithBoundedFanIn) {
  util::Rng rng(7);
  ScaleDagConfig cfg;
  cfg.task_count = 2500;
  cfg.width = 64;
  cfg.max_extra_fan_in = 2;
  const Workflow w = make_scale_dag(cfg, rng);
  EXPECT_EQ(w.task_count(), 2500u);
  // Fan-in is constant-bounded -- the property that makes generation
  // O(task_count) and the 1M tier feasible.
  for (const Task& t : w.tasks()) {
    EXPECT_GE(t.inputs.size(), 1u);
    EXPECT_LE(t.inputs.size(), 3u);
    EXPECT_EQ(t.outputs.size(), 1u);
  }
  EXPECT_NO_THROW(w.validate());
}

TEST(ScaleDag, IsDeterministicPerSeed) {
  ScaleDagConfig cfg;
  cfg.task_count = 300;
  cfg.width = 16;
  util::Rng rng_a(11);
  util::Rng rng_b(11);
  const Workflow a = make_scale_dag(cfg, rng_a);
  const Workflow b = make_scale_dag(cfg, rng_b);
  ASSERT_EQ(a.task_count(), b.task_count());
  for (TaskId t = 0; t < a.task_count(); ++t) {
    EXPECT_EQ(a.task(t).name, b.task(t).name);
    EXPECT_EQ(a.task(t).inputs, b.task(t).inputs);
    EXPECT_DOUBLE_EQ(a.task(t).flops, b.task(t).flops);
  }
}

TEST(ScaleDag, PartialLastLevelStillValidates) {
  ScaleDagConfig cfg;
  cfg.task_count = 70;  // not a multiple of width
  cfg.width = 32;
  util::Rng rng(3);
  const Workflow w = make_scale_dag(cfg, rng);
  EXPECT_EQ(w.task_count(), 70u);
  EXPECT_NO_THROW(w.validate());
}

}  // namespace
}  // namespace bbsim::wf
