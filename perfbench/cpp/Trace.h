//===- Trace.h - In-memory spans around calls into Concord -----*- C++ -*-===//
///
/// \file
/// A span records one call into a Concord layer made by the benchmark:
/// name ("<layer>.<what>"), start, end, parent span and an id tag (cell,
/// kernel or frame). Spans stay in memory and are written as Chrome
/// trace-event JSON when the run ends. With tracing off a span costs one
/// branch and reads no clock.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_TRACE_H
#define PERFBENCH_TRACE_H

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

class Tracer {
public:
  using TimePoint = std::chrono::steady_clock::time_point;

  explicit Tracer(bool On) : On(On), Origin(std::chrono::steady_clock::now()) {}
  Tracer(const Tracer &) = delete;
  Tracer &operator=(const Tracer &) = delete;

  bool on() const { return On; }
  /// Turns recording on or off for spans that start afterwards.
  void setOn(bool Value) { On = Value; }

  /// RAII span: records [construction, destruction) and is the parent of
  /// spans opened on the same thread while it lives.
  class Scope {
  public:
    Scope(Tracer &T, const char *Name, uint64_t Tag);
    ~Scope();
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    Tracer *T = nullptr; ///< Null when tracing was off at construction.
    const char *Name;
    uint64_t Tag;
    uint32_t Id = 0, Parent = 0;
    TimePoint Start;
  };

  Scope span(const char *Name, uint64_t Tag = 0) { return {*this, Name, Tag}; }

  /// Records a finished span measured elsewhere (pass boundaries,
  /// scheduler hooks); its parent is the calling thread's open span.
  void record(const char *Name, uint64_t Tag, TimePoint Start, TimePoint End);

  size_t size() const;

  /// Writes every span as Chrome trace-event JSON ("X" events; args carry
  /// id, parent and tag). Returns false when the file cannot be written.
  bool writeChrome(const std::string &Path) const;

  /// Self seconds per layer: each span's duration minus the part of it
  /// covered by its children, summed by the name's layer prefix.
  std::map<std::string, double> selfSecondsByLayer() const;

private:
  struct Span {
    const char *Name;
    uint64_t Tag;
    uint32_t Id, Parent, Thread;
    TimePoint Start, End;
  };
  uint32_t nextId() { return NextId.fetch_add(1) + 1; }
  void push(const Span &S);

  std::atomic<bool> On;
  TimePoint Origin;
  std::atomic<uint32_t> NextId{0};
  mutable std::mutex Mutex; ///< Guards Spans.
  std::vector<Span> Spans;
};

} // namespace perfbench

#endif // PERFBENCH_TRACE_H
