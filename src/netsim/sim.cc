#include "netsim/sim.h"

#include <algorithm>

#include "obs/timeseries.h"

namespace painter::netsim {

void Simulator::Schedule(double delay_s, Handler fn) {
  if (delay_s < 0.0) throw std::invalid_argument{"Schedule: negative delay"};
  ScheduleAtUs(now_us_ + UsFromSeconds(delay_s), std::move(fn));
}

void Simulator::ScheduleAt(double at_s, Handler fn) {
  ScheduleAtUs(UsFromSeconds(at_s), std::move(fn));
}

void Simulator::ScheduleAtUs(SimTime at_us, Handler fn) {
  if (at_us < now_us_) {
    throw std::invalid_argument{"ScheduleAt: time in the past"};
  }
  heap_.push_back(Event{at_us, next_seq_++, std::move(fn)});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
}

void Simulator::RunUntilUs(SimTime until_us) {
  while (!heap_.empty() && heap_.front().at <= until_us) {
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    Event ev = std::move(heap_.back());
    heap_.pop_back();
    now_us_ = ev.at;
    ++executed_;
    ev.fn();
  }
  if (now_us_ < until_us) now_us_ = until_us;
}

namespace {

void ScheduleSample(Simulator& sim, obs::TimeseriesRegistry& registry,
                    std::uint64_t index, SimTime horizon_us) {
  sim.ScheduleAtUs(registry.SlotUs(index),
                   [&sim, &registry, index, horizon_us]() {
                     registry.SampleSlot(index, sim.NowUs());
                     if (registry.SlotUs(index + 1) <= horizon_us) {
                       ScheduleSample(sim, registry, index + 1, horizon_us);
                     }
                   });
}

}  // namespace

void StartSampling(Simulator& sim, obs::TimeseriesRegistry& registry,
                   double horizon_s) {
  registry.AnchorGrid(sim.NowUs());
  ScheduleSample(sim, registry, 0, sim.NowUs() + UsFromSeconds(horizon_s));
}

}  // namespace painter::netsim
