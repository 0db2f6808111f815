#include "obs/sampler.h"

#include <cassert>
#include <cmath>
#include <cstdio>
#include <ostream>

namespace mdr::obs {
namespace {

void append_double(std::string& out, double v) {
  // JSON has no representation for non-finite doubles (fd_change events
  // legitimately carry an infinite initial distance): emit null.
  if (!std::isfinite(v)) {
    out += "null";
    return;
  }
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  out += buf;
}

void append_u64(std::string& out, std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%llu", static_cast<unsigned long long>(v));
  out += buf;
}

void append_int(std::string& out, long long v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%lld", v);
  out += buf;
}

const std::string& node_name(const TelemetryNames& names, graph::NodeId id,
                             const std::string& fallback) {
  if (id >= 0 && static_cast<std::size_t>(id) < names.nodes.size()) {
    return names.nodes[static_cast<std::size_t>(id)];
  }
  return fallback;
}

}  // namespace

TimeSeriesSampler::TimeSeriesSampler(Duration interval, std::size_t num_links,
                                     std::size_t num_flows, Telemetry* out)
    : interval_(interval),
      out_(out),
      prev_links_(num_links),
      prev_link_t_(num_links, 0.0),
      prev_flows_(num_flows) {
  assert(out_ != nullptr);
  out_->sample_interval = interval;
}

void TimeSeriesSampler::record_link(Time t, std::uint32_t link,
                                    const LinkCumulative& now) {
  if (link >= prev_links_.size()) return;
  LinkCumulative& prev = prev_links_[link];
  const Duration elapsed = t - prev_link_t_[link];
  LinkSample row;
  row.t = t;
  row.link = link;
  row.utilization =
      elapsed > 0 ? (now.busy_time - prev.busy_time) / elapsed : 0.0;
  row.queue_bits = now.queue_bits;
  row.queue_packets = now.queue_packets;
  row.data_bits = now.data_bits - prev.data_bits;
  row.control_bits = now.control_bits - prev.control_bits;
  row.drops = now.drops - prev.drops;
  out_->links.push_back(row);
  prev = now;
  prev_link_t_[link] = t;
}

void TimeSeriesSampler::record_flow(Time t, int flow,
                                    const FlowCumulative& now) {
  if (flow < 0 || static_cast<std::size_t>(flow) >= prev_flows_.size()) return;
  FlowCumulative& prev = prev_flows_[static_cast<std::size_t>(flow)];
  FlowSample row;
  row.t = t;
  row.flow = flow;
  row.injected = now.injected - prev.injected;
  row.delivered = now.delivered - prev.delivered;
  row.delay_sum_s = now.delay_sum_s - prev.delay_sum_s;
  row.measured_delivered = now.measured_delivered - prev.measured_delivered;
  row.measured_delay_sum_s =
      now.measured_delay_sum_s - prev.measured_delay_sum_s;
  row.dropped = now.dropped - prev.dropped;
  out_->flows.push_back(row);
  prev = now;
}

void TimeSeriesSampler::record_dest(Time t, graph::NodeId dest,
                                    const DestCumulative& now) {
  if (dest < 0) return;
  const auto index = static_cast<std::size_t>(dest);
  if (index >= prev_dest_versions_.size()) {
    prev_dest_versions_.resize(index + 1, 0);
  }
  DestSample row;
  row.t = t;
  row.dest = dest;
  row.mean_successors = now.mean_successors;
  row.mean_entropy_bits = now.mean_entropy_bits;
  row.churn = now.successor_versions - prev_dest_versions_[index];
  out_->dests.push_back(row);
  prev_dest_versions_[index] = now.successor_versions;
}

void TimeSeriesSampler::record_control(Time t, const ControlCumulative& now) {
  ControlSample row;
  row.t = t;
  row.lsus_originated = now.lsus_originated - prev_control_.lsus_originated;
  row.lsus_retransmitted =
      now.lsus_retransmitted - prev_control_.lsus_retransmitted;
  row.lsus_suppressed = now.lsus_suppressed - prev_control_.lsus_suppressed;
  row.acks = now.acks - prev_control_.acks;
  row.hellos = now.hellos - prev_control_.hellos;
  row.control_bits = now.control_bits - prev_control_.control_bits;
  row.control_dropped = now.control_dropped - prev_control_.control_dropped;
  out_->control.push_back(row);
  prev_control_ = now;
}

std::vector<NetworkWindow> network_windows(
    const std::vector<FlowSample>& rows) {
  std::vector<NetworkWindow> windows;
  for (const FlowSample& row : rows) {
    if (windows.empty() || windows.back().t != row.t) {
      windows.push_back(NetworkWindow{row.t, 0, 0, 0});
    }
    NetworkWindow& w = windows.back();
    w.delivered += row.delivered;
    w.delay_sum_s += row.delay_sum_s;
    w.dropped += row.dropped;
  }
  return windows;
}

namespace {

void append_link_names(std::string& line, const TelemetryNames& names,
                       std::uint32_t link) {
  static const std::string kUnknown = "?";
  if (link < names.links.size()) {
    line += names.links[link].first;
    line += "\",\"to\":\"";
    line += names.links[link].second;
  } else {
    line += kUnknown;
    line += "\",\"to\":\"";
    line += kUnknown;
  }
}

void append_event_json(std::string& line, const Event& e,
                       const TelemetryNames& names) {
  static const std::string kUnknown = "?";
  line += "\"t\":";
  append_double(line, e.t);
  line += ",\"node\":\"";
  line += node_name(names, e.node, kUnknown);
  line += "\",\"event\":\"";
  line += event_type_name(e.type);
  line += '"';
  if (e.peer != graph::kInvalidNode) {
    line += ",\"peer\":\"";
    line += node_name(names, e.peer, kUnknown);
    line += '"';
  }
  line += ",\"a\":";
  append_double(line, e.a);
  line += ",\"b\":";
  append_double(line, e.b);
}

}  // namespace

void write_samples_jsonl(std::ostream& os, const Telemetry& telemetry,
                         const TelemetryNames& names, int run) {
  static const std::string kUnknown = "?";
  std::string line;
  for (const LinkSample& s : telemetry.links) {
    line.clear();
    line += "{\"kind\":\"link\",\"run\":";
    append_int(line, run);
    line += ",\"t\":";
    append_double(line, s.t);
    line += ",\"from\":\"";
    append_link_names(line, names, s.link);
    line += "\",\"util\":";
    append_double(line, s.utilization);
    line += ",\"queue_bits\":";
    append_double(line, s.queue_bits);
    line += ",\"queue_pkts\":";
    append_u64(line, s.queue_packets);
    line += ",\"data_bits\":";
    append_double(line, s.data_bits);
    line += ",\"control_bits\":";
    append_double(line, s.control_bits);
    line += ",\"drops\":";
    append_u64(line, s.drops);
    line += "}\n";
    os << line;
  }
  for (const FlowSample& s : telemetry.flows) {
    line.clear();
    line += "{\"kind\":\"flow\",\"run\":";
    append_int(line, run);
    line += ",\"t\":";
    append_double(line, s.t);
    line += ",\"src\":\"";
    const auto f = static_cast<std::size_t>(s.flow);
    if (f < names.flows.size()) {
      line += names.flows[f].first;
      line += "\",\"dst\":\"";
      line += names.flows[f].second;
    } else {
      line += kUnknown;
      line += "\",\"dst\":\"";
      line += kUnknown;
    }
    line += "\",\"injected\":";
    append_u64(line, s.injected);
    line += ",\"delivered\":";
    append_u64(line, s.delivered);
    line += ",\"delay_sum_s\":";
    append_double(line, s.delay_sum_s);
    line += ",\"measured_delivered\":";
    append_u64(line, s.measured_delivered);
    line += ",\"measured_delay_sum_s\":";
    append_double(line, s.measured_delay_sum_s);
    line += ",\"dropped\":";
    append_u64(line, s.dropped);
    line += "}\n";
    os << line;
  }
  for (const DestSample& s : telemetry.dests) {
    line.clear();
    line += "{\"kind\":\"dest\",\"run\":";
    append_int(line, run);
    line += ",\"t\":";
    append_double(line, s.t);
    line += ",\"dest\":\"";
    line += node_name(names, s.dest, kUnknown);
    line += "\",\"mean_successors\":";
    append_double(line, s.mean_successors);
    line += ",\"mean_entropy_bits\":";
    append_double(line, s.mean_entropy_bits);
    line += ",\"churn\":";
    append_u64(line, s.churn);
    line += "}\n";
    os << line;
  }
  for (const ControlSample& s : telemetry.control) {
    line.clear();
    line += "{\"kind\":\"control\",\"run\":";
    append_int(line, run);
    line += ",\"t\":";
    append_double(line, s.t);
    line += ",\"lsus_originated\":";
    append_u64(line, s.lsus_originated);
    line += ",\"lsus_retransmitted\":";
    append_u64(line, s.lsus_retransmitted);
    line += ",\"lsus_suppressed\":";
    append_u64(line, s.lsus_suppressed);
    line += ",\"acks\":";
    append_u64(line, s.acks);
    line += ",\"hellos\":";
    append_u64(line, s.hellos);
    line += ",\"control_bits\":";
    append_double(line, s.control_bits);
    line += ",\"control_dropped\":";
    append_u64(line, s.control_dropped);
    line += "}\n";
    os << line;
  }
  for (const StabilitySample& s : telemetry.stability) {
    line.clear();
    line += "{\"kind\":\"stability\",\"run\":";
    append_int(line, run);
    line += ",\"t\":";
    append_double(line, s.t);
    line += ",\"queue_bits\":";
    append_double(line, s.queue_bits);
    line += ",\"slope_bps\":";
    append_double(line, s.slope_bps);
    line += ",\"delay_s\":";
    append_double(line, s.delay_s);
    line += ",\"margin\":";
    append_double(line, s.margin);
    line += "}\n";
    os << line;
  }
}

void write_trace_jsonl(std::ostream& os, const Telemetry& telemetry,
                       const TelemetryNames& names, int run) {
  std::string line;
  for (const Event& e : telemetry.trace) {
    line.clear();
    line += "{\"kind\":\"event\",\"run\":";
    append_int(line, run);
    line += ',';
    append_event_json(line, e, names);
    line += "}\n";
    os << line;
  }
  for (const FlightDump& dump : telemetry.flight_dumps) {
    line.clear();
    line += "{\"kind\":\"flight_dump\",\"run\":";
    append_int(line, run);
    line += ",\"t\":";
    append_double(line, dump.t);
    line += ",\"reason\":\"";
    line += dump.reason;
    line += "\",\"events\":[";
    bool first = true;
    for (const Event& e : dump.events) {
      if (!first) line += ',';
      first = false;
      line += '{';
      append_event_json(line, e, names);
      line += '}';
    }
    line += "]}\n";
    os << line;
  }
}

void write_metrics_jsonl(std::ostream& os, const MetricRegistry& metrics,
                         const std::string& run_label) {
  std::string line;
  line += "{\"kind\":\"metrics\",\"run\":\"";
  line += run_label;
  line += "\",\"metrics\":";
  metrics.append_json(line);
  line += "}\n";
  os << line;
}

namespace {

void csv_row(std::ostream& os, std::string& line, int run, Time t,
             const char* kind, const std::string& entity, const char* metric,
             double value) {
  line.clear();
  append_int(line, run);
  line += ',';
  append_double(line, t);
  line += ',';
  line += kind;
  line += ',';
  line += entity;
  line += ',';
  line += metric;
  line += ',';
  append_double(line, value);
  line += '\n';
  os << line;
}

}  // namespace

void write_samples_csv(std::ostream& os, const Telemetry& telemetry,
                       const TelemetryNames& names, int run, bool header) {
  if (header) os << "run,t,kind,entity,metric,value\n";
  static const std::string kUnknown = "?";
  std::string line;
  std::string entity;
  for (const LinkSample& s : telemetry.links) {
    entity = s.link < names.links.size()
                 ? names.links[s.link].first + "->" + names.links[s.link].second
                 : kUnknown;
    csv_row(os, line, run, s.t, "link", entity, "util", s.utilization);
    csv_row(os, line, run, s.t, "link", entity, "queue_bits", s.queue_bits);
    csv_row(os, line, run, s.t, "link", entity, "queue_pkts",
            static_cast<double>(s.queue_packets));
    csv_row(os, line, run, s.t, "link", entity, "data_bits", s.data_bits);
    csv_row(os, line, run, s.t, "link", entity, "control_bits",
            s.control_bits);
    csv_row(os, line, run, s.t, "link", entity, "drops",
            static_cast<double>(s.drops));
  }
  for (const FlowSample& s : telemetry.flows) {
    const auto f = static_cast<std::size_t>(s.flow);
    entity = f < names.flows.size()
                 ? names.flows[f].first + "->" + names.flows[f].second
                 : kUnknown;
    csv_row(os, line, run, s.t, "flow", entity, "injected",
            static_cast<double>(s.injected));
    csv_row(os, line, run, s.t, "flow", entity, "delivered",
            static_cast<double>(s.delivered));
    csv_row(os, line, run, s.t, "flow", entity, "delay_sum_s", s.delay_sum_s);
    csv_row(os, line, run, s.t, "flow", entity, "measured_delivered",
            static_cast<double>(s.measured_delivered));
    csv_row(os, line, run, s.t, "flow", entity, "measured_delay_sum_s",
            s.measured_delay_sum_s);
    csv_row(os, line, run, s.t, "flow", entity, "dropped",
            static_cast<double>(s.dropped));
  }
  for (const DestSample& s : telemetry.dests) {
    entity = node_name(names, s.dest, kUnknown);
    csv_row(os, line, run, s.t, "dest", entity, "mean_successors",
            s.mean_successors);
    csv_row(os, line, run, s.t, "dest", entity, "mean_entropy_bits",
            s.mean_entropy_bits);
    csv_row(os, line, run, s.t, "dest", entity, "churn",
            static_cast<double>(s.churn));
  }
  for (const ControlSample& s : telemetry.control) {
    entity = "net";
    csv_row(os, line, run, s.t, "control", entity, "lsus_originated",
            static_cast<double>(s.lsus_originated));
    csv_row(os, line, run, s.t, "control", entity, "lsus_retransmitted",
            static_cast<double>(s.lsus_retransmitted));
    csv_row(os, line, run, s.t, "control", entity, "lsus_suppressed",
            static_cast<double>(s.lsus_suppressed));
    csv_row(os, line, run, s.t, "control", entity, "acks",
            static_cast<double>(s.acks));
    csv_row(os, line, run, s.t, "control", entity, "hellos",
            static_cast<double>(s.hellos));
    csv_row(os, line, run, s.t, "control", entity, "control_bits",
            s.control_bits);
    csv_row(os, line, run, s.t, "control", entity, "control_dropped",
            static_cast<double>(s.control_dropped));
  }
  for (const StabilitySample& s : telemetry.stability) {
    entity = "net";
    csv_row(os, line, run, s.t, "stability", entity, "queue_bits",
            s.queue_bits);
    csv_row(os, line, run, s.t, "stability", entity, "slope_bps", s.slope_bps);
    csv_row(os, line, run, s.t, "stability", entity, "delay_s", s.delay_s);
    csv_row(os, line, run, s.t, "stability", entity, "margin", s.margin);
  }
}

}  // namespace mdr::obs
