#include "trace.h"

#include <cstdio>

namespace perfbench {

const char* SpanNameString(SpanName n) {
  switch (n) {
    case SpanName::kAlgorithmsJob: return "algorithms.job";
    case SpanName::kGraphApplyBatch: return "graph.apply_batch";
    case SpanName::kServingRequest: return "serving.request";
    case SpanName::kTmRun: return "tm.run";
    case SpanName::kTmRunReadOnly: return "tm.run_read_only";
    case SpanName::kTmRunBatch: return "tm.run_batch";
    case SpanName::kDurabilityPublish: return "durability.publish";
    case SpanName::kDurabilityCommit: return "durability.commit";
    default: return "?";
  }
}

const char* SpanLayer(SpanName n) {
  switch (n) {
    case SpanName::kAlgorithmsJob: return "algorithms";
    case SpanName::kGraphApplyBatch: return "graph";
    case SpanName::kServingRequest: return "serving";
    case SpanName::kTmRun:
    case SpanName::kTmRunReadOnly:
    case SpanName::kTmRunBatch: return "tm";
    case SpanName::kDurabilityPublish:
    case SpanName::kDurabilityCommit: return "durability";
    default: return "?";
  }
}

namespace {

struct LocalSlot {
  void* buf = nullptr;
  uint64_t generation = 0;
};
thread_local LocalSlot t_slot;
thread_local uint64_t t_job = 0;

}  // namespace

Tracer& Tracer::Get() {
  static Tracer tracer;
  return tracer;
}

void Tracer::Reset() {
  std::lock_guard<std::mutex> lk(mu_);
  threads_.clear();
  generation_.fetch_add(1, std::memory_order_relaxed);
  job_parent_.store(0, std::memory_order_relaxed);
}

Tracer::ThreadBuf& Tracer::Local() {
  const uint64_t gen = generation_.load(std::memory_order_relaxed);
  if (t_slot.buf == nullptr || t_slot.generation != gen) {
    std::lock_guard<std::mutex> lk(mu_);
    auto buf = std::make_unique<ThreadBuf>();
    buf->index = static_cast<uint32_t>(threads_.size());
    buf->kept.reserve(1024);
    t_slot.buf = buf.get();
    t_slot.generation = gen;
    threads_.push_back(std::move(buf));
  }
  return *static_cast<ThreadBuf*>(t_slot.buf);
}

void Tracer::SetThreadJob(uint64_t job) { t_job = job; }

uint64_t Tracer::CurrentSpanId() const {
  if (t_slot.buf == nullptr ||
      t_slot.generation != generation_.load(std::memory_order_relaxed)) {
    return 0;
  }
  const auto* b = static_cast<const ThreadBuf*>(t_slot.buf);
  return b->stack.empty() ? 0 : b->stack.back().id;
}

bool Tracer::InnermostIs(SpanName name) const {
  if (t_slot.buf == nullptr ||
      t_slot.generation != generation_.load(std::memory_order_relaxed)) {
    return false;
  }
  const auto* b = static_cast<const ThreadBuf*>(t_slot.buf);
  return !b->stack.empty() && b->stack.back().name == name;
}

void Tracer::Begin(SpanName name, uint32_t items) {
  ThreadBuf& b = Local();
  const uint64_t id = (static_cast<uint64_t>(b.index + 1) << 40) | b.next_seq++;
  b.stack.push_back(Open{id, NowNs(), 0, name, items});
}

void Tracer::End(SpanName name) {
  const uint64_t end = NowNs();
  ThreadBuf& b = Local();
  if (b.stack.empty() || b.stack.back().name != name) return;
  const Open o = b.stack.back();
  b.stack.pop_back();
  const uint64_t dur = end - o.start;
  const uint64_t self = dur > o.child_ns ? dur - o.child_ns : 0;
  uint64_t parent;
  if (!b.stack.empty()) {
    b.stack.back().child_ns += dur;
    parent = b.stack.back().id;
  } else {
    parent = job_parent_.load(std::memory_order_relaxed);
  }
  SpanAggregate& a = b.agg[static_cast<int>(name)];
  ++a.count;
  a.total_ns += dur;
  a.self_ns += self;
  a.items += o.items;
  a.duration.Record(dur);
  if (b.kept.size() < kKeptPerThread) {
    b.kept.push_back(
        SpanRecord{o.id, parent, t_job, o.start, end, b.index, name, o.items});
  }
}

std::vector<SpanAggregate> Tracer::Aggregate() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::vector<SpanAggregate> out(kNumSpanNames);
  for (const auto& t : threads_) {
    for (int i = 0; i < kNumSpanNames; ++i) {
      const SpanAggregate& a = t->agg[i];
      out[i].count += a.count;
      out[i].total_ns += a.total_ns;
      out[i].self_ns += a.self_ns;
      out[i].items += a.items;
      out[i].duration.Merge(a.duration);
    }
  }
  return out;
}

void Tracer::MergeQueueDelays(tufast::serving::LatencyHistogram* out) const {
  std::lock_guard<std::mutex> lk(mu_);
  for (const auto& t : threads_) out->Merge(t->queue_delay);
}

size_t Tracer::WriteTsv(const std::string& path) const {
  std::lock_guard<std::mutex> lk(mu_);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return 0;
  std::fprintf(f, "id\tparent\tjob\tthread\tname\tstart_ns\tend_ns\titems\n");
  size_t n = 0;
  for (const auto& t : threads_) {
    for (const SpanRecord& s : t->kept) {
      std::fprintf(f, "%llu\t%llu\t%llu\t%u\t%s\t%llu\t%llu\t%u\n",
                   static_cast<unsigned long long>(s.id),
                   static_cast<unsigned long long>(s.parent),
                   static_cast<unsigned long long>(s.job), s.thread,
                   SpanNameString(s.name),
                   static_cast<unsigned long long>(s.start_ns),
                   static_cast<unsigned long long>(s.end_ns), s.items);
      ++n;
    }
  }
  std::fclose(f);
  return n;
}

std::map<std::string, double> SelfTimeShares(
    const std::vector<SpanAggregate>& agg) {
  std::map<std::string, double> self;
  double total = 0;
  for (int i = 0; i < kNumSpanNames; ++i) {
    const SpanName n = static_cast<SpanName>(i);
    // Job spans wait for the pool; their work shows up in other threads'
    // spans, so counting their self time would count waiting as work.
    if (n == SpanName::kAlgorithmsJob) continue;
    self[SpanLayer(n)] += static_cast<double>(agg[i].self_ns);
    total += static_cast<double>(agg[i].self_ns);
  }
  std::map<std::string, double> out;
  for (const char* layer : {"graph", "serving", "tm", "durability"}) {
    out[std::string(layer) + ".self_frac"] = Ratio(self[layer], total);
  }
  return out;
}

}  // namespace perfbench
