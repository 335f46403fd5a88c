#include "trace/trace.hpp"

#include <algorithm>
#include <cstdio>

namespace updown {

namespace {

/// Grow-on-demand accumulate: series are sparse in time, so inner vectors
/// extend only as far as the last nonzero slice.
template <typename T>
void bump(std::vector<T>& v, std::uint64_t idx, std::uint64_t amount) {
  if (v.size() <= idx) v.resize(idx + 1, 0);
  v[idx] += static_cast<T>(amount);
}

template <typename T>
void bump_max(std::vector<T>& v, std::uint64_t idx, std::uint64_t value) {
  if (v.size() <= idx) v.resize(idx + 1, 0);
  if (v[idx] < static_cast<T>(value)) v[idx] = static_cast<T>(value);
}

/// Split `cost` cycles starting at `start` across fixed-width slices.
template <typename T>
void add_ranged(std::vector<T>& v, Tick start, std::uint64_t cost, Tick slice) {
  Tick t = start;
  std::uint64_t rem = cost;
  while (rem > 0) {
    const std::uint64_t sidx = t / slice;
    const Tick slice_end = static_cast<Tick>(sidx + 1) * slice;
    const std::uint64_t take = std::min<std::uint64_t>(rem, slice_end - t);
    bump(v, sidx, take);
    t += take;
    rem -= take;
  }
}

std::uint32_t hist_bucket(std::uint64_t x) {
  if (x == 0) return 0;
  std::uint32_t b = 0;
  while (x > 0 && b < kTraceHistBuckets - 1) {
    x >>= 1;
    ++b;
  }
  return b;
}

}  // namespace

Tracer::Tracer(const MachineConfig& cfg, std::uint32_t nshards, std::string json_path,
               Tick slice)
    : cfg_(cfg),
      path_(std::move(json_path)),
      slice_(slice > 0 ? slice : 1),
      lanes_per_node_(cfg.lanes_per_node()),
      shards_(nshards),
      lane_busy_(cfg.total_lanes()),
      node_busy_(cfg.nodes),
      node_events_(cfg.nodes),
      node_arrivals_(cfg.nodes),
      node_sent_(cfg.nodes),
      node_sent_bytes_(cfg.nodes),
      node_backlog_(cfg.nodes),
      phase_seq_(cfg.total_lanes(), 0) {}

void Tracer::on_execute(std::uint32_t lane, std::uint32_t node, Tick arrive, Tick start,
                        std::uint64_t cost) {
  bump(node_arrivals_[node], slice_of(arrive), 1);
  bump(node_events_[node], slice_of(start), 1);
  add_ranged(lane_busy_[lane], start, cost, slice_);
  add_ranged(node_busy_[node], start, cost, slice_);
}

void Tracer::on_message(TraceShard& ts, std::uint32_t src_node, std::uint32_t dst_node,
                        std::uint32_t bytes, Tick depart, Tick arrive,
                        Tick inject_backlog) {
  const std::uint64_t sidx = slice_of(depart);
  bump(node_sent_[src_node], sidx, 1);
  bump(node_sent_bytes_[src_node], sidx, bytes);
  bump_max(node_backlog_[src_node], sidx, inject_backlog);
  TraceShard::Traffic& cell =
      ts.traffic[static_cast<std::uint64_t>(src_node) * cfg_.nodes + dst_node];
  cell.msgs += 1;
  cell.bytes += bytes;
  ts.msg_latency[hist_bucket(arrive - depart)] += 1;
}

void Tracer::on_dram_wait(TraceShard& ts, Tick wait) {
  ts.dram_wait[hist_bucket(wait)] += 1;
}

std::unordered_map<std::uint64_t, TraceShard::Traffic> Tracer::merged_traffic() const {
  std::unordered_map<std::uint64_t, TraceShard::Traffic> out;
  for (const auto& ts : shards_)
    for (const auto& [key, cell] : ts.traffic) {
      TraceShard::Traffic& sum = out[key];
      sum.msgs += cell.msgs;
      sum.bytes += cell.bytes;
    }
  return out;
}

std::uint32_t Tracer::intern(std::string_view name) {
  std::lock_guard<std::mutex> lock(name_mu_);
  const auto it = name_ids_.find(std::string(name));
  if (it != name_ids_.end()) return it->second;
  const std::uint32_t id = static_cast<std::uint32_t>(names_.size());
  names_.emplace_back(name);
  name_ids_.emplace(names_.back(), id);
  return id;
}

void Tracer::phase_begin(TraceShard& ts, std::uint32_t lane, Tick t,
                         std::string_view name) {
  ts.phases.push_back({t, lane, phase_seq_[lane]++, intern(name), true});
}

void Tracer::phase_end(TraceShard& ts, std::uint32_t lane, Tick t, std::string_view name) {
  ts.phases.push_back({t, lane, phase_seq_[lane]++, intern(name), false});
}

std::uint64_t Tracer::nslices() const {
  std::uint64_t n = 0;
  const auto scan = [&n](const auto& outer) {
    for (const auto& v : outer) n = std::max<std::uint64_t>(n, v.size());
  };
  scan(lane_busy_);
  scan(node_busy_);
  scan(node_events_);
  scan(node_arrivals_);
  scan(node_sent_);
  scan(node_sent_bytes_);
  scan(node_backlog_);
  return n;
}

std::vector<double> Tracer::imbalance_series() const {
  const std::uint64_t n = nslices();
  const std::uint64_t nlanes = lane_busy_.size();
  std::vector<double> out(n, 0.0);
  for (std::uint64_t s = 0; s < n; ++s) {
    std::uint64_t total = 0, peak = 0;
    for (const auto& v : lane_busy_) {
      const std::uint64_t b = s < v.size() ? v[s] : 0;
      total += b;
      peak = std::max(peak, b);
    }
    if (total > 0)
      out[s] = static_cast<double>(peak) * static_cast<double>(nlanes) /
               static_cast<double>(total);
  }
  return out;
}

void Tracer::serialize() const {
  if (std::FILE* f = std::fopen(path_.c_str(), "w")) {
    write_json(f);
    std::fclose(f);
  } else {
    std::fprintf(stderr, "[udtrace] cannot write %s\n", path_.c_str());
    return;
  }
  const std::string csv = path_ + ".csv";
  if (std::FILE* f = std::fopen(csv.c_str(), "w")) {
    write_csv(f);
    std::fclose(f);
  } else {
    std::fprintf(stderr, "[udtrace] cannot write %s\n", csv.c_str());
  }
}

namespace {

/// Phase records merged across shards in their deterministic total order.
std::vector<TraceShard::Phase> merged_phases(const std::vector<TraceShard>& shards) {
  std::vector<TraceShard::Phase> all;
  for (const auto& ts : shards) all.insert(all.end(), ts.phases.begin(), ts.phases.end());
  std::sort(all.begin(), all.end(),
            [](const TraceShard::Phase& a, const TraceShard::Phase& b) {
              if (a.t != b.t) return a.t < b.t;
              if (a.lane != b.lane) return a.lane < b.lane;
              return a.seq < b.seq;
            });
  return all;
}

std::array<std::uint64_t, kTraceHistBuckets> summed_hist(
    const std::vector<TraceShard>& shards,
    std::array<std::uint64_t, kTraceHistBuckets> TraceShard::*member) {
  std::array<std::uint64_t, kTraceHistBuckets> out{};
  for (const auto& ts : shards)
    for (std::uint32_t b = 0; b < kTraceHistBuckets; ++b) out[b] += (ts.*member)[b];
  return out;
}

void write_hist_json(std::FILE* f, const char* name,
                     const std::array<std::uint64_t, kTraceHistBuckets>& h) {
  std::fprintf(f, "    \"%s\": [", name);
  for (std::uint32_t b = 0; b < kTraceHistBuckets; ++b)
    std::fprintf(f, "%s%llu", b ? "," : "", static_cast<unsigned long long>(h[b]));
  std::fprintf(f, "]");
}

}  // namespace

void Tracer::write_json(std::FILE* f) const {
  const std::vector<TraceShard::Phase> phases = merged_phases(shards_);
  const auto msg_hist = summed_hist(shards_, &TraceShard::msg_latency);
  const auto dram_hist = summed_hist(shards_, &TraceShard::dram_wait);
  const auto traffic = merged_traffic();
  const auto traffic_at = [&](std::uint32_t s, std::uint32_t d) {
    const auto it = traffic.find(static_cast<std::uint64_t>(s) * cfg_.nodes + d);
    return it != traffic.end() ? it->second : TraceShard::Traffic{};
  };
  const std::uint64_t n = nslices();

  // Chrome trace_event JSON object form. `ts` is nominally microseconds; we
  // write simulated ticks directly (1 viewer-us == 1 cycle at 2 GHz), which
  // keeps every value an integer and the file byte-stable.
  std::fprintf(f, "{\n\"otherData\": {\n");
  std::fprintf(f, "    \"tool\": \"udtrace\",\n");
  std::fprintf(f, "    \"ts_units\": \"simulated cycles (2 GHz; rendered as us)\",\n");
  std::fprintf(f, "    \"slice_ticks\": %llu,\n", (unsigned long long)slice_);
  std::fprintf(f, "    \"nodes\": %u,\n", cfg_.nodes);
  std::fprintf(f, "    \"lanes\": %llu,\n", (unsigned long long)cfg_.total_lanes());
  std::fprintf(f, "    \"hist_buckets\": \"b0: 0; b: [2^(b-1), 2^b) cycles\",\n");
  write_hist_json(f, "message_latency_hist", msg_hist);
  std::fprintf(f, ",\n");
  write_hist_json(f, "dram_queue_wait_hist", dram_hist);
  std::fprintf(f, ",\n    \"traffic_matrix_messages\": [");
  for (std::uint32_t s = 0; s < cfg_.nodes; ++s) {
    std::fprintf(f, "%s[", s ? "," : "");
    for (std::uint32_t d = 0; d < cfg_.nodes; ++d)
      std::fprintf(f, "%s%llu", d ? "," : "", (unsigned long long)traffic_at(s, d).msgs);
    std::fprintf(f, "]");
  }
  std::fprintf(f, "],\n    \"traffic_matrix_bytes\": [");
  for (std::uint32_t s = 0; s < cfg_.nodes; ++s) {
    std::fprintf(f, "%s[", s ? "," : "");
    for (std::uint32_t d = 0; d < cfg_.nodes; ++d)
      std::fprintf(f, "%s%llu", d ? "," : "", (unsigned long long)traffic_at(s, d).bytes);
    std::fprintf(f, "]");
  }
  std::fprintf(f, "]\n},\n\"traceEvents\": [\n");

  bool first = true;
  const auto sep = [&] {
    if (!first) std::fputs(",\n", f);
    first = false;
  };

  // Track names. pid 0 carries the phase spans (one tid per lane that emitted
  // markers), pid 1 the per-node counter series.
  sep();
  std::fprintf(f, "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,"
                  "\"args\":{\"name\":\"phases\"}}");
  sep();
  std::fprintf(f, "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,"
                  "\"args\":{\"name\":\"machine\"}}");
  {
    std::vector<std::uint32_t> lanes;
    for (const auto& p : phases) lanes.push_back(p.lane);
    std::sort(lanes.begin(), lanes.end());
    lanes.erase(std::unique(lanes.begin(), lanes.end()), lanes.end());
    for (std::uint32_t lane : lanes) {
      sep();
      std::fprintf(f,
                   "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":%u,"
                   "\"args\":{\"name\":\"lane %u (node %u)\"}}",
                   lane, lane, lane / lanes_per_node_);
    }
  }

  // Phase spans.
  for (const auto& p : phases) {
    sep();
    std::fprintf(f, "{\"name\":\"%s\",\"ph\":\"%c\",\"pid\":0,\"tid\":%u,\"ts\":%llu}",
                 names_[p.name].c_str(), p.begin ? 'B' : 'E', p.lane,
                 (unsigned long long)p.t);
  }

  // Counter series: one sample per slice. Values are integers (cycles,
  // counts, bytes) so the text form is exact.
  const auto at = [](const std::vector<std::uint64_t>& v, std::uint64_t s) {
    return s < v.size() ? v[s] : 0;
  };
  std::uint64_t inflight = 0;
  for (std::uint64_t s = 0; s < n; ++s) {
    const unsigned long long ts = (unsigned long long)(s * slice_);
    sep();
    std::fprintf(f, "{\"name\":\"busy cycles\",\"ph\":\"C\",\"pid\":1,\"tid\":0,"
                    "\"ts\":%llu,\"args\":{", ts);
    for (std::uint32_t nd = 0; nd < cfg_.nodes; ++nd)
      std::fprintf(f, "%s\"n%u\":%llu", nd ? "," : "", nd,
                   (unsigned long long)at(node_busy_[nd], s));
    std::fprintf(f, "}}");
    sep();
    std::fprintf(f, "{\"name\":\"msgs sent\",\"ph\":\"C\",\"pid\":1,\"tid\":0,"
                    "\"ts\":%llu,\"args\":{", ts);
    for (std::uint32_t nd = 0; nd < cfg_.nodes; ++nd)
      std::fprintf(f, "%s\"n%u\":%llu", nd ? "," : "", nd,
                   (unsigned long long)at(node_sent_[nd], s));
    std::fprintf(f, "}}");
    sep();
    std::fprintf(f, "{\"name\":\"net inject backlog\",\"ph\":\"C\",\"pid\":1,\"tid\":0,"
                    "\"ts\":%llu,\"args\":{", ts);
    for (std::uint32_t nd = 0; nd < cfg_.nodes; ++nd)
      std::fprintf(f, "%s\"n%u\":%llu", nd ? "," : "", nd,
                   (unsigned long long)at(node_backlog_[nd], s));
    std::fprintf(f, "}}");
    std::uint64_t sent = 0, arrived = 0;
    for (std::uint32_t nd = 0; nd < cfg_.nodes; ++nd) {
      sent += at(node_sent_[nd], s);
      arrived += at(node_arrivals_[nd], s);
    }
    inflight += sent;
    inflight -= std::min(inflight, arrived);
    sep();
    std::fprintf(f, "{\"name\":\"msgs in flight\",\"ph\":\"C\",\"pid\":1,\"tid\":0,"
                    "\"ts\":%llu,\"args\":{\"msgs\":%llu}}",
                 ts, (unsigned long long)inflight);
  }

  std::fprintf(f, "\n]\n}\n");
}

void Tracer::write_csv(std::FILE* f) const {
  const std::vector<TraceShard::Phase> phases = merged_phases(shards_);
  const auto msg_hist = summed_hist(shards_, &TraceShard::msg_latency);
  const auto dram_hist = summed_hist(shards_, &TraceShard::dram_wait);
  const auto traffic = merged_traffic();
  const std::vector<double> imb = imbalance_series();

  std::fprintf(f, "# udtrace v1: slice=%llu ticks, nodes=%u, lanes=%llu\n",
               (unsigned long long)slice_, cfg_.nodes,
               (unsigned long long)cfg_.total_lanes());
  std::fprintf(f, "metric,a,b,value\n");
  const auto series = [&](const char* metric,
                          const std::vector<std::vector<std::uint64_t>>& outer) {
    for (std::size_t id = 0; id < outer.size(); ++id)
      for (std::size_t s = 0; s < outer[id].size(); ++s)
        if (outer[id][s])
          std::fprintf(f, "%s,%llu,%llu,%llu\n", metric, (unsigned long long)s,
                       (unsigned long long)id, (unsigned long long)outer[id][s]);
  };
  for (std::size_t lane = 0; lane < lane_busy_.size(); ++lane)
    for (std::size_t s = 0; s < lane_busy_[lane].size(); ++s)
      if (lane_busy_[lane][s])
        std::fprintf(f, "lane_busy,%llu,%llu,%u\n", (unsigned long long)s,
                     (unsigned long long)lane, lane_busy_[lane][s]);
  series("node_busy", node_busy_);
  series("node_events", node_events_);
  series("node_arrivals", node_arrivals_);
  series("node_sent", node_sent_);
  series("node_sent_bytes", node_sent_bytes_);
  series("node_backlog", node_backlog_);
  for (std::size_t s = 0; s < imb.size(); ++s)
    if (imb[s] > 0.0)
      std::fprintf(f, "imbalance,%llu,,%.6f\n", (unsigned long long)s, imb[s]);
  for (const auto& p : phases)
    std::fprintf(f, "phase,%llu,%u,%c:%s\n", (unsigned long long)p.t, p.lane,
                 p.begin ? 'B' : 'E', names_[p.name].c_str());
  {
    // Same (src, dst)-ascending row order the dense matrix walk produced.
    std::vector<std::uint64_t> keys;
    keys.reserve(traffic.size());
    for (const auto& [key, cell] : traffic) keys.push_back(key);
    std::sort(keys.begin(), keys.end());
    for (std::uint64_t key : keys) {
      const std::uint32_t s = static_cast<std::uint32_t>(key / cfg_.nodes);
      const std::uint32_t d = static_cast<std::uint32_t>(key % cfg_.nodes);
      const TraceShard::Traffic& cell = traffic.at(key);
      if (cell.msgs)
        std::fprintf(f, "traffic_msgs,%u,%u,%llu\n", s, d, (unsigned long long)cell.msgs);
      if (cell.bytes)
        std::fprintf(f, "traffic_bytes,%u,%u,%llu\n", s, d, (unsigned long long)cell.bytes);
    }
  }
  for (std::uint32_t b = 0; b < kTraceHistBuckets; ++b)
    if (msg_hist[b])
      std::fprintf(f, "hist_msg_latency,%u,,%llu\n", b, (unsigned long long)msg_hist[b]);
  for (std::uint32_t b = 0; b < kTraceHistBuckets; ++b)
    if (dram_hist[b])
      std::fprintf(f, "hist_dram_wait,%u,,%llu\n", b, (unsigned long long)dram_hist[b]);
}

}  // namespace updown
