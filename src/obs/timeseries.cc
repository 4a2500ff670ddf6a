#include "obs/timeseries.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>

#include "obs/json.h"

namespace painter::obs {

namespace {

// Seconds -> µs rounded to nearest, exactly as netsim::UsFromSeconds rounds
// the simulator grid the samples land on.
[[nodiscard]] std::uint64_t PeriodUs(double period_s) {
  if (!(period_s >= 0.0) || !std::isfinite(period_s)) {
    throw std::invalid_argument{"TimeseriesRegistry: negative or non-finite "
                                "period"};
  }
  return static_cast<std::uint64_t>(std::llround(period_s * 1e6));
}

}  // namespace

TimeseriesRegistry::TimeseriesRegistry(TimeseriesConfig config)
    : config_(config), period_us_(PeriodUs(config.period_s)) {
  if (period_us_ == 0) {
    throw std::invalid_argument{"TimeseriesRegistry: period below 1 µs"};
  }
  if (config_.capacity < 2) {
    throw std::invalid_argument{"TimeseriesRegistry: capacity below 2"};
  }
}

void TimeseriesRegistry::RegisterSampler(std::string name,
                                         std::function<double()> fn,
                                         bool wall_clock) {
  for (const Series& s : series_) {
    if (s.name == name) {
      throw std::logic_error{"timeseries name already registered: " + name};
    }
  }
  Series s;
  s.name = std::move(name);
  s.sampled = true;
  s.wall_clock = wall_clock;
  s.fn = std::move(fn);
  series_.push_back(std::move(s));
}

void TimeseriesRegistry::Push(Series& s, std::uint64_t t_us, double value) {
  if (!s.values.empty() && t_us < s.last_t_us) {
    throw std::invalid_argument{"timeseries " + s.name +
                                ": non-monotonic timestamp"};
  }
  if (s.values.size() == config_.capacity) {
    // Evict the oldest point; folding its delta keeps the chain exact.
    if (!s.t_delta_us.empty()) {
      s.base_t_us += s.t_delta_us.front();
      s.t_delta_us.erase(s.t_delta_us.begin());
      if (!s.t_delta_us.empty()) {
        // base_t_us now names the new front; its own delta becomes 0.
        s.base_t_us += s.t_delta_us.front();
        s.t_delta_us.front() = 0;
      }
    }
    s.values.erase(s.values.begin());
    ++s.dropped;
  }
  if (s.values.empty()) {
    s.base_t_us = t_us;
    s.t_delta_us.clear();
    if (!s.sampled) s.t_delta_us.push_back(0);
  } else if (!s.sampled) {
    s.t_delta_us.push_back(t_us - s.last_t_us);
  }
  s.values.push_back(value);
  s.last_t_us = t_us;
}

void TimeseriesRegistry::Append(std::string_view name, std::uint64_t t_us,
                                double value) {
  for (Series& s : series_) {
    if (s.name == name) {
      if (s.sampled) {
        throw std::logic_error{"timeseries kind mismatch: " +
                               std::string(name)};
      }
      Push(s, t_us, value);
      return;
    }
  }
  Series s;
  s.name = std::string(name);
  s.sampled = false;
  series_.push_back(std::move(s));
  Push(series_.back(), t_us, value);
}

void TimeseriesRegistry::SampleNow(std::uint64_t t_us) {
  for (Series& s : series_) {
    if (s.sampled) Push(s, t_us, s.fn());
  }
  ++samples_taken_;
}

void TimeseriesRegistry::AnchorGrid(std::uint64_t anchor_us) {
  if (anchored_) {
    throw std::logic_error{"TimeseriesRegistry: sampling grid anchored twice"};
  }
  anchored_ = true;
  anchor_us_ = anchor_us;
}

void TimeseriesRegistry::SampleSlot(std::uint64_t index, std::uint64_t now_us) {
  const std::uint64_t slot = SlotUs(index);
  max_skew_us_ =
      std::max(max_skew_us_, now_us > slot ? now_us - slot : slot - now_us);
  SampleNow(now_us);
}

const TimeseriesRegistry::Series& TimeseriesRegistry::Find(
    std::string_view name) const {
  for (const Series& s : series_) {
    if (s.name == name) return s;
  }
  throw std::out_of_range{"no timeseries named " + std::string(name)};
}

TimeseriesRegistry::SeriesView TimeseriesRegistry::View(
    std::string_view name) const {
  const Series& s = Find(name);
  SeriesView v;
  v.sampled = s.sampled;
  v.wall_clock = s.wall_clock;
  v.dropped = s.dropped;
  v.values = s.values;
  if (s.sampled) {
    // Implicit grid times: the oldest retained sample is sample `dropped`.
    for (std::size_t k = 0; k < s.values.size(); ++k) {
      v.t_us.push_back(SlotUs(s.dropped + k));
    }
  } else {
    std::uint64_t t = s.base_t_us;
    for (std::size_t k = 0; k < s.t_delta_us.size(); ++k) {
      t += s.t_delta_us[k];
      v.t_us.push_back(t);
    }
  }
  return v;
}

namespace {

bool AllIntegral(const std::vector<double>& values) {
  return std::all_of(values.begin(), values.end(), [](double v) {
    return std::isfinite(v) && v == std::floor(v) && std::abs(v) < 9.0e15;
  });
}

}  // namespace

void TimeseriesRegistry::WriteJson(std::ostream& os) const {
  std::vector<const Series*> sorted;
  sorted.reserve(series_.size());
  for (const Series& s : series_) sorted.push_back(&s);
  std::sort(sorted.begin(), sorted.end(),
            [](const Series* a, const Series* b) { return a->name < b->name; });

  JsonWriter w{os};
  w.BeginObject();
  w.Key("schema");
  w.String("painter.timeseries.v1");
  w.Key("period_us");
  w.Number(static_cast<std::uint64_t>(period_us_));
  w.Key("anchor_us");
  w.Number(static_cast<std::uint64_t>(anchor_us_));
  w.Key("samples_taken");
  w.Number(samples_taken_);
  w.Key("series");
  w.BeginObject();
  for (const Series* s : sorted) {
    w.Key(s->name);
    w.BeginObject();
    w.Key("kind");
    w.String(s->sampled ? "sampled" : "events");
    w.Key("dropped");
    w.Number(s->dropped);
    if (s->sampled) {
      // The oldest retained sample's grid index (== dropped) locates the
      // window; times are implicit at anchor + index * period.
      w.Key("first_index");
      w.Number(s->dropped);
    } else {
      w.Key("base_t_us");
      w.Number(static_cast<std::uint64_t>(s->base_t_us));
      w.Key("t_us_delta");
      w.BeginArray();
      for (const std::uint64_t d : s->t_delta_us) w.Number(d);
      w.EndArray();
    }
    // Integral series delta-encode (exact for integral doubles); fractional
    // series emit raw values. Wall-clock series get `wall_` keys so
    // StripVolatile empties them.
    const bool delta = AllIntegral(s->values) && !s->values.empty();
    std::string key = delta ? "samples_delta" : "samples";
    if (s->wall_clock) key = "wall_" + key;
    w.Key(key);
    w.BeginArray();
    if (delta) {
      double prev = 0.0;
      for (std::size_t k = 0; k < s->values.size(); ++k) {
        w.Number(k == 0 ? s->values[k] : s->values[k] - prev);
        prev = s->values[k];
      }
    } else {
      for (const double v : s->values) w.Number(v);
    }
    w.EndArray();
    w.EndObject();
  }
  w.EndObject();
  w.EndObject();
}

std::string TimeseriesRegistry::ToJson() const {
  std::ostringstream os;
  WriteJson(os);
  return os.str();
}

}  // namespace painter::obs
