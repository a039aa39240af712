// Serial-vs-parallel checker parity: run_parallel must produce a report
// bit-identical to run() for the same (strategy, budget, seed), because
// results are applied on the caller thread in submission order and the
// strategy's batch boundaries preserve the serial plan sequence.
#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "baselines/bfi.h"
#include "baselines/random_injection.h"
#include "baselines/stratified_bfi.h"
#include "core/checker.h"
#include "core/sabre.h"
#include "test_helpers.h"

namespace {

using namespace avis;

// A modest simulated budget: enough for a multi-batch campaign (several
// expansion waves, at least one unsafe result) while keeping the test quick.
constexpr sim::SimTimeMs kBudgetMs = 600 * 1000;

using avis::testing::expect_reports_equal;

TEST(CheckerParallel, SabreParityAtFourWorkers) {
  core::Checker& checker =
      avis::testing::cached_checker(fw::Personality::kArduPilotLike, workload::WorkloadId::kAuto);
  const core::MonitorModel& model = checker.model();
  const auto suite = core::SimulationHarness::iris_suite();

  core::SabreScheduler serial_strategy(suite, model.golden_transitions());
  core::BudgetClock serial_budget(kBudgetMs);
  const core::CheckerReport serial = checker.run(serial_strategy, serial_budget);
  ASSERT_GE(serial.experiments, 3) << "budget too small to exercise batching";

  core::SabreScheduler parallel_strategy(suite, model.golden_transitions());
  core::BudgetClock parallel_budget(kBudgetMs);
  const core::CheckerReport parallel =
      checker.run_parallel(parallel_strategy, parallel_budget, /*workers=*/4);

  expect_reports_equal(serial, parallel);
}

// Odd and small pools: with one task per plan, a wave of ~10 plans splits
// unevenly across 2 or 3 workers, so results complete out of submission
// order and the in-order apply loop has to wait on stragglers.
TEST(CheckerParallel, SabreParityAtTwoAndThreeWorkers) {
  core::Checker& checker =
      avis::testing::cached_checker(fw::Personality::kArduPilotLike, workload::WorkloadId::kAuto);
  const core::MonitorModel& model = checker.model();
  const auto suite = core::SimulationHarness::iris_suite();

  core::SabreScheduler serial_strategy(suite, model.golden_transitions());
  core::BudgetClock serial_budget(kBudgetMs);
  const core::CheckerReport serial = checker.run(serial_strategy, serial_budget);

  for (const int workers : {2, 3}) {
    core::SabreScheduler parallel_strategy(suite, model.golden_transitions());
    core::BudgetClock parallel_budget(kBudgetMs);
    const core::CheckerReport parallel =
        checker.run_parallel(parallel_strategy, parallel_budget, workers);
    SCOPED_TRACE("workers=" + std::to_string(workers));
    expect_reports_equal(serial, parallel);
  }
}

// Forwards to a real strategy and counts the plans it hands out, so a test
// can tell whether a campaign consumed plans it never applied.
class CountingStrategy final : public core::InjectionStrategy {
 public:
  explicit CountingStrategy(core::InjectionStrategy& inner) : inner_(&inner) {}

  std::optional<core::FaultPlan> next(core::BudgetClock& budget) override {
    auto plan = inner_->next(budget);
    if (plan) ++proposed;
    return plan;
  }
  std::vector<core::FaultPlan> next_batch(core::BudgetClock& budget, int max_plans) override {
    std::vector<core::FaultPlan> plans = inner_->next_batch(budget, max_plans);
    proposed += static_cast<int>(plans.size());
    return plans;
  }
  void feedback(const core::FaultPlan& plan, const core::ExperimentResult& result) override {
    inner_->feedback(plan, result);
  }
  int chain_extension_limit() const override { return inner_->chain_extension_limit(); }
  const char* name() const override { return inner_->name(); }

  int proposed = 0;

 private:
  core::InjectionStrategy* inner_;
};

// Budgets that run out inside a SABRE expansion wave: the apply loop stops
// at the discard boundary and cancels the rest of the wave, and the report
// must still match the serial loop's, checkpoint counters included.
TEST(CheckerParallel, SabreParityWhenBudgetEndsMidWave) {
  core::Checker& checker =
      avis::testing::cached_checker(fw::Personality::kArduPilotLike, workload::WorkloadId::kAuto);
  const core::MonitorModel& model = checker.model();
  const auto suite = core::SimulationHarness::iris_suite();

  int mid_wave_endings = 0;
  for (const sim::SimTimeMs budget_ms : {130000, 275000, 410000, 545000}) {
    core::SabreScheduler serial_strategy(suite, model.golden_transitions());
    core::BudgetClock serial_budget(budget_ms);
    const core::CheckerReport serial = checker.run(serial_strategy, serial_budget);

    core::SabreScheduler parallel_sabre(suite, model.golden_transitions());
    CountingStrategy parallel_strategy(parallel_sabre);
    core::BudgetClock parallel_budget(budget_ms);
    const core::CheckerReport parallel =
        checker.run_parallel(parallel_strategy, parallel_budget, /*workers=*/4);

    SCOPED_TRACE("budget_ms=" + std::to_string(budget_ms));
    expect_reports_equal(serial, parallel);
    if (parallel_strategy.proposed > parallel.experiments) ++mid_wave_endings;
  }
  // The sweep is only worth its run time if the cancel path was taken.
  EXPECT_GT(mid_wave_endings, 0) << "no budget ended inside a wave; pick other budgets";
}

TEST(CheckerParallel, RandomParityAtFourWorkers) {
  core::Checker& checker =
      avis::testing::cached_checker(fw::Personality::kArduPilotLike, workload::WorkloadId::kAuto);
  const core::MonitorModel& model = checker.model();
  const auto suite = core::SimulationHarness::iris_suite();

  baselines::RandomInjection serial_strategy(suite, model.profiling_duration_ms(), 42);
  core::BudgetClock serial_budget(kBudgetMs);
  const core::CheckerReport serial = checker.run(serial_strategy, serial_budget);
  ASSERT_GE(serial.experiments, 3);

  baselines::RandomInjection parallel_strategy(suite, model.profiling_duration_ms(), 42);
  core::BudgetClock parallel_budget(kBudgetMs);
  const core::CheckerReport parallel =
      checker.run_parallel(parallel_strategy, parallel_budget, /*workers=*/4);

  expect_reports_equal(serial, parallel);
}

// BFI and Stratified BFI charge the budget *while proposing* (10 s per
// model label), the case where parity is most fragile: the exhausting
// charge can be a label on a plan that still gets simulated serially. A
// spread of budgets makes the campaign end at different points in the
// label/experiment interleaving.
TEST(CheckerParallel, BfiParityAtFourWorkersAcrossBudgets) {
  core::Checker& checker =
      avis::testing::cached_checker(fw::Personality::kArduPilotLike, workload::WorkloadId::kAuto);
  const core::MonitorModel& model = checker.model();
  const auto suite = core::SimulationHarness::iris_suite();
  static baselines::NaiveBayesModel bayes(baselines::default_training_corpus());

  for (const sim::SimTimeMs budget_ms : {215000, 300000, 605000}) {
    baselines::BfiChecker serial_strategy(suite, bayes,
                                          baselines::ModeTimeline(model.golden_transitions()),
                                          /*seed=*/7);
    core::BudgetClock serial_budget(budget_ms);
    const core::CheckerReport serial = checker.run(serial_strategy, serial_budget);

    baselines::BfiChecker parallel_strategy(suite, bayes,
                                            baselines::ModeTimeline(model.golden_transitions()),
                                            /*seed=*/7);
    core::BudgetClock parallel_budget(budget_ms);
    const core::CheckerReport parallel =
        checker.run_parallel(parallel_strategy, parallel_budget, /*workers=*/4);

    SCOPED_TRACE("budget_ms=" + std::to_string(budget_ms));
    expect_reports_equal(serial, parallel);
    EXPECT_GT(serial.labels, 0);
  }
}

TEST(CheckerParallel, StratifiedBfiParityAtFourWorkers) {
  core::Checker& checker =
      avis::testing::cached_checker(fw::Personality::kArduPilotLike, workload::WorkloadId::kAuto);
  const core::MonitorModel& model = checker.model();
  const auto suite = core::SimulationHarness::iris_suite();
  static baselines::NaiveBayesModel bayes(baselines::default_training_corpus());

  baselines::StratifiedBfi serial_strategy(suite, model.golden_transitions(), bayes);
  core::BudgetClock serial_budget(kBudgetMs);
  const core::CheckerReport serial = checker.run(serial_strategy, serial_budget);
  EXPECT_GT(serial.labels, 0);

  baselines::StratifiedBfi parallel_strategy(suite, model.golden_transitions(), bayes);
  core::BudgetClock parallel_budget(kBudgetMs);
  const core::CheckerReport parallel =
      checker.run_parallel(parallel_strategy, parallel_budget, /*workers=*/4);

  expect_reports_equal(serial, parallel);
}

TEST(CheckerParallel, OneWorkerTakesTheSerialPath) {
  core::Checker& checker =
      avis::testing::cached_checker(fw::Personality::kArduPilotLike, workload::WorkloadId::kAuto);
  const core::MonitorModel& model = checker.model();
  const auto suite = core::SimulationHarness::iris_suite();

  core::SabreScheduler serial_strategy(suite, model.golden_transitions());
  core::BudgetClock serial_budget(kBudgetMs);
  const core::CheckerReport serial = checker.run(serial_strategy, serial_budget);

  core::SabreScheduler one_worker_strategy(suite, model.golden_transitions());
  core::BudgetClock one_worker_budget(kBudgetMs);
  const core::CheckerReport one_worker =
      checker.run_parallel(one_worker_strategy, one_worker_budget, /*workers=*/1);

  expect_reports_equal(serial, one_worker);
}

TEST(CheckerParallel, SabreBatchStopsAtWaveBoundary) {
  core::Checker& checker =
      avis::testing::cached_checker(fw::Personality::kArduPilotLike, workload::WorkloadId::kAuto);
  const core::MonitorModel& model = checker.model();
  const auto suite = core::SimulationHarness::iris_suite();

  // next_batch must hand out the same plan sequence as repeated next().
  core::SabreScheduler by_next(suite, model.golden_transitions());
  core::SabreScheduler by_batch(suite, model.golden_transitions());
  core::BudgetClock budget_a(kBudgetMs);
  core::BudgetClock budget_b(kBudgetMs);

  std::vector<std::string> next_sigs;
  for (int i = 0; i < 12; ++i) {
    auto plan = by_next.next(budget_a);
    if (!plan) break;
    next_sigs.push_back(plan->signature());
  }
  std::vector<std::string> batch_sigs;
  while (batch_sigs.size() < next_sigs.size()) {
    const auto plans = by_batch.next_batch(budget_b, 5);
    if (plans.empty()) break;
    for (const auto& plan : plans) batch_sigs.push_back(plan.signature());
  }
  batch_sigs.resize(std::min(batch_sigs.size(), next_sigs.size()));
  next_sigs.resize(batch_sigs.size());
  EXPECT_EQ(batch_sigs, next_sigs);
  EXPECT_FALSE(batch_sigs.empty());
}

TEST(CheckerParallel, SabreSerializesConfigsWithIntraWavePruning) {
  core::Checker& checker =
      avis::testing::cached_checker(fw::Personality::kArduPilotLike, workload::WorkloadId::kAuto);
  const core::MonitorModel& model = checker.model();
  const auto suite = core::SimulationHarness::iris_suite();
  core::BudgetClock budget(kBudgetMs);

  // Full-powerset waves can contain a set and its same-timestamp superset,
  // and disabled symmetry folding can put role-identical sets in one wave;
  // serial execution prunes those at proposal time after a mid-wave bug, so
  // batching must fall back to one plan at a time to preserve parity.
  core::SabreConfig powerset;
  powerset.full_powerset_batches = true;
  core::SabreScheduler powerset_sabre(suite, model.golden_transitions(), powerset);
  EXPECT_LE(powerset_sabre.next_batch(budget, 8).size(), 1u);

  core::SabreConfig no_symmetry;
  no_symmetry.symmetry_pruning = false;
  core::SabreScheduler no_symmetry_sabre(suite, model.golden_transitions(), no_symmetry);
  EXPECT_LE(no_symmetry_sabre.next_batch(budget, 8).size(), 1u);

  // With found-bug pruning off there is nothing to prune mid-wave, so the
  // full-powerset wave may batch freely again.
  core::SabreConfig no_pruning;
  no_pruning.full_powerset_batches = true;
  no_pruning.found_bug_pruning = false;
  core::SabreScheduler no_pruning_sabre(suite, model.golden_transitions(), no_pruning);
  EXPECT_GT(no_pruning_sabre.next_batch(budget, 8).size(), 1u);
}

}  // namespace
