#pragma once
/// \file spans.hpp
/// The traced run's span recorder. The benchmark opens a span around each
/// call it makes into a layer's public functions; spans nest (a job span is
/// the parent of its layer spans) and carry the id of the job they belong
/// to. Spans stay in memory and are written out once, as a Chrome trace,
/// when the run ends. Single-threaded: the replay that records spans is
/// serial by design.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

class Tracer {
 public:
  struct Span {
    const char* name = "";
    const char* layer = "";  ///< self time is summed per layer
    double start = 0.0;      ///< seconds, monotonic
    double end = 0.0;
    std::int32_t parent = -1;  ///< index into spans(), -1 for a root
    std::uint32_t job = 0;
  };

  /// Opens a span under the innermost open one; returns its index.
  std::int32_t open(const char* name, const char* layer);
  void close(std::int32_t index);
  /// Records a span timed elsewhere (a client thread) as a root span.
  void add(const char* name, const char* layer, double start, double end, std::uint32_t job);

  /// Job id stamped on spans opened from now on.
  void set_job(std::uint32_t job) { job_ = job; }

  const std::vector<Span>& spans() const { return spans_; }

  /// Self time (duration minus the part covered by child spans) summed per
  /// layer, seconds.
  std::map<std::string, double> self_seconds_by_layer() const;

  /// Share of the job spans' total duration that no layer span inside them
  /// covers, in percent.
  double unattributed_pct() const;

  /// Chrome trace_event JSON of every span (complete 'X' events, one track
  /// per job). Returns false on I/O failure.
  bool write_chrome_trace(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<std::int32_t> open_;
  std::uint32_t job_ = 0;
};

/// RAII span; inert when the tracer is null (the untraced run shares the
/// same call sequence).
class SpanScope {
 public:
  SpanScope(Tracer* tracer, const char* name, const char* layer)
      : tracer_(tracer), index_(tracer != nullptr ? tracer->open(name, layer) : -1) {}
  ~SpanScope() {
    if (tracer_ != nullptr) tracer_->close(index_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  Tracer* tracer_;
  std::int32_t index_;
};

/// The job root span's layer: its self time is the unattributed remainder.
inline constexpr const char* kJobLayer = "job";

}  // namespace perfbench
