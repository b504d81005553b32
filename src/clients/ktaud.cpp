#include "clients/ktaud.hpp"

namespace ktau::clients {

Ktaud::Ktaud(kernel::Machine& m, const KtaudConfig& cfg)
    : machine_(m),
      cfg_(cfg),
      handle_(m.proc()),
      extractor_(handle_, cfg.pids, cfg.delta) {
  task_ = &machine_.spawn("ktaud");
  task_->is_daemon = true;
  task_->program = daemon_program();
  machine_.launch(*task_);
}

void Ktaud::extract_once() {
  ExtractStats stats;
  if (cfg_.collect_traces) {
    auto trace = extractor_.extract_trace(stats);
    total_records_ += stats.records;
    total_dropped_ += stats.dropped;
    if (cfg_.keep_archives) traces_.push_back(std::move(trace));
  }
  if (cfg_.collect_profiles) {
    const meas::ProfileSnapshot& prof = extractor_.extract_profile(stats);
    if (cfg_.keep_archives) profiles_.push_back(prof);
  }
  ++extractions_;
  last_extract_bytes_ = stats.total_bytes();
  total_extract_bytes_ += last_extract_bytes_;
  // Charge the daemon's user-space processing cost for what it pulled.
  Extractor::charge(*task_, stats, cfg_.process_per_kb);
}

kernel::Program Ktaud::daemon_program() {
  while (machine_.engine().now() < cfg_.until) {
    co_await kernel::SleepFor{cfg_.period};
    extract_once();
  }
}

}  // namespace ktau::clients
