#include "spans.hpp"

#include <cstdio>
#include <cstring>

#include "common.hpp"

namespace perfbench {

std::int32_t Tracer::open(const char* name, const char* layer) {
  Span span;
  span.name = name;
  span.layer = layer;
  span.start = now_seconds();
  span.parent = open_.empty() ? -1 : open_.back();
  span.job = job_;
  spans_.push_back(span);
  const auto index = static_cast<std::int32_t>(spans_.size() - 1);
  open_.push_back(index);
  return index;
}

void Tracer::close(std::int32_t index) {
  spans_[static_cast<std::size_t>(index)].end = now_seconds();
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

void Tracer::add(const char* name, const char* layer, double start, double end,
                 std::uint32_t job) {
  Span span;
  span.name = name;
  span.layer = layer;
  span.start = start;
  span.end = end;
  span.job = job;
  spans_.push_back(span);
}

std::map<std::string, double> Tracer::self_seconds_by_layer() const {
  std::vector<double> child_time(spans_.size(), 0.0);
  for (const Span& span : spans_)
    if (span.parent >= 0)
      child_time[static_cast<std::size_t>(span.parent)] += span.end - span.start;
  std::map<std::string, double> self;
  for (std::size_t i = 0; i < spans_.size(); ++i)
    self[spans_[i].layer] += (spans_[i].end - spans_[i].start) - child_time[i];
  return self;
}

double Tracer::unattributed_pct() const {
  double job_total = 0.0;
  for (const Span& span : spans_)
    if (std::strcmp(span.layer, kJobLayer) == 0) job_total += span.end - span.start;
  if (job_total <= 0.0) return 0.0;
  const auto self = self_seconds_by_layer();
  const auto it = self.find(kJobLayer);
  return it == self.end() ? 0.0 : 100.0 * it->second / job_total;
}

bool Tracer::write_chrome_trace(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  const double origin = spans_.empty() ? 0.0 : spans_.front().start;
  std::fputs("{\"traceEvents\":[", out);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(out,
                 "%s\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"job\":%u,\"span\":%zu,\"parent\":%d}}",
                 i == 0 ? "" : ",", s.name, s.layer, s.job, (s.start - origin) * 1e6,
                 (s.end - s.start) * 1e6, s.job, i, s.parent);
  }
  std::fputs("\n],\"displayTimeUnit\":\"ms\"}\n", out);
  return std::fclose(out) == 0;
}

}  // namespace perfbench
