//===- Trace.cpp ----------------------------------------------------------===//

#include "Trace.h"

#include <algorithm>
#include <cstdio>

using namespace perfbench;

namespace {
thread_local uint32_t CurrentSpan = 0;

uint32_t threadNumber() {
  static std::atomic<uint32_t> Next{0};
  thread_local uint32_t Mine = ++Next;
  return Mine;
}

std::string layerOf(const char *Name) {
  std::string S(Name);
  return S.substr(0, S.find('.'));
}
} // namespace

Tracer::Scope::Scope(Tracer &Tr, const char *Name, uint64_t Tag)
    : Name(Name), Tag(Tag) {
  if (!Tr.on())
    return;
  T = &Tr;
  Id = Tr.nextId();
  Parent = CurrentSpan;
  CurrentSpan = Id;
  Start = std::chrono::steady_clock::now();
}

Tracer::Scope::~Scope() {
  if (!T)
    return;
  T->push(Span{Name, Tag, Id, Parent, threadNumber(), Start,
               std::chrono::steady_clock::now()});
  CurrentSpan = Parent;
}

void Tracer::record(const char *Name, uint64_t Tag, TimePoint Start,
                    TimePoint End) {
  if (on())
    push(Span{Name, Tag, nextId(), CurrentSpan, threadNumber(), Start, End});
}

void Tracer::push(const Span &S) {
  std::lock_guard<std::mutex> Lock(Mutex);
  Spans.push_back(S);
}

size_t Tracer::size() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Spans.size();
}

bool Tracer::writeChrome(const std::string &Path) const {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  auto Us = [&](TimePoint P) {
    return std::chrono::duration<double, std::micro>(P - Origin).count();
  };
  std::lock_guard<std::mutex> Lock(Mutex);
  std::fprintf(F, "{\"traceEvents\": [\n");
  for (size_t I = 0; I < Spans.size(); ++I) {
    const Span &S = Spans[I];
    std::fprintf(F,
                 "{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                 "\"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, \"tid\": %u, "
                 "\"args\": {\"id\": %u, \"parent\": %u, \"tag\": %llu}}%s\n",
                 S.Name, layerOf(S.Name).c_str(), Us(S.Start),
                 Us(S.End) - Us(S.Start), S.Thread, S.Id, S.Parent,
                 (unsigned long long)S.Tag, I + 1 < Spans.size() ? "," : "");
  }
  std::fprintf(F, "], \"displayTimeUnit\": \"ms\"}\n");
  return std::fclose(F) == 0;
}

std::map<std::string, double> Tracer::selfSecondsByLayer() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  std::map<uint32_t, std::vector<const Span *>> Children;
  for (const Span &S : Spans)
    if (S.Parent)
      Children[S.Parent].push_back(&S);
  std::map<std::string, double> Self;
  for (const Span &S : Spans) {
    double Covered = 0;
    auto It = Children.find(S.Id);
    if (It != Children.end()) {
      // Union of the children's intervals, clipped to the parent.
      std::vector<std::pair<TimePoint, TimePoint>> Iv;
      for (const Span *C : It->second)
        Iv.emplace_back(std::max(C->Start, S.Start), std::min(C->End, S.End));
      std::sort(Iv.begin(), Iv.end());
      TimePoint CurB = S.Start, CurE = S.Start;
      for (const auto &[B, E] : Iv) {
        if (E <= B)
          continue;
        if (B > CurE) {
          Covered += std::chrono::duration<double>(CurE - CurB).count();
          CurB = B;
          CurE = E;
        } else {
          CurE = std::max(CurE, E);
        }
      }
      Covered += std::chrono::duration<double>(CurE - CurB).count();
    }
    double Dur = std::chrono::duration<double>(S.End - S.Start).count();
    Self[layerOf(S.Name)] += std::max(0.0, Dur - Covered);
  }
  return Self;
}
