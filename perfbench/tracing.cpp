#include "tracing.hpp"

#include <iomanip>
#include <ostream>

namespace perfbench {

std::uint64_t Tracer::open() {
  if (!enabled_) return 0;
  const std::lock_guard<std::mutex> lock{mu_};
  return next_id_++;
}

void Tracer::close(Span span) {
  if (!enabled_) return;
  const std::lock_guard<std::mutex> lock{mu_};
  spans_.push_back(std::move(span));
}

void Tracer::write_jsonl(std::ostream& os) const {
  const std::lock_guard<std::mutex> lock{mu_};
  os << std::setprecision(9);
  for (const Span& s : spans_) {
    os << "{\"id\":" << s.id << ",\"parent\":" << s.parent << ",\"scenario\":" << s.scenario
       << ",\"name\":\"" << s.name << "\",\"start_s\":" << s.start_s << ",\"end_s\":" << s.end_s
       << ",\"wait_s\":" << s.wait_s << "}\n";
  }
}

Phase::Phase(Tracer& tracer, std::string name, std::uint64_t parent, std::uint64_t scenario,
             double wait_s)
    : tracer_{tracer},
      name_{std::move(name)},
      id_{tracer.open()},
      parent_{parent},
      scenario_{scenario},
      wait_s_{wait_s} {}

Phase::~Phase() { stop(); }

double Phase::stop() {
  if (stopped_) return duration_s_;
  const Clock::time_point end = Clock::now();
  stopped_ = true;
  duration_s_ = seconds_between(start_, end);
  if (id_ != 0) {
    tracer_.close(Span{id_, parent_, scenario_, std::move(name_),
                       seconds_between(tracer_.epoch(), start_),
                       seconds_between(tracer_.epoch(), end), wait_s_});
  }
  return duration_s_;
}

}  // namespace perfbench
