#include "ckpt/checkpoint.hpp"

#include <stdexcept>

namespace ibgp::ckpt {

namespace {

using util::json::Array;
using util::json::Object;
using util::json::Value;

// --- encode helpers ---------------------------------------------------------

Array uint_array(const std::vector<std::uint64_t>& values) {
  Array out;
  out.reserve(values.size());
  for (const auto v : values) out.emplace_back(v);
  return out;
}

template <typename T>
Array num_array(const std::vector<T>& values) {
  Array out;
  out.reserve(values.size());
  for (const auto v : values) out.emplace_back(static_cast<std::int64_t>(v));
  return out;
}

Array bool_array(const std::vector<bool>& values) {
  // 0/1 instead of true/false: these vectors are long and the compact form
  // keeps node-count^2 session masks readable in a diff.
  Array out;
  out.reserve(values.size());
  for (const bool v : values) out.emplace_back(static_cast<std::uint64_t>(v ? 1 : 0));
  return out;
}

template <typename T>
Array nested_num_array(const std::vector<std::vector<T>>& rows) {
  Array out;
  out.reserve(rows.size());
  for (const auto& row : rows) out.emplace_back(num_array(row));
  return out;
}

Array rule_array(const std::array<std::uint64_t, bgp::kSelectionRuleCount>& rules) {
  Array out;
  out.reserve(rules.size());
  for (const auto v : rules) out.emplace_back(v);
  return out;
}

// --- decode helpers ---------------------------------------------------------

[[noreturn]] void bad(const std::string& what) {
  throw std::runtime_error("ibgp-ckpt-v1: " + what);
}

const Value& field(const Value& doc, std::string_view key) {
  const Value* v = doc.find(key);
  if (v == nullptr) bad("missing field '" + std::string(key) + "'");
  return *v;
}

std::uint64_t get_uint(const Value& doc, std::string_view key) {
  try {
    return field(doc, key).as_uint();
  } catch (const std::runtime_error&) {
    bad("field '" + std::string(key) + "' is not a non-negative integer");
  }
}

std::vector<std::uint64_t> get_uints(const Value& doc, std::string_view key) {
  std::vector<std::uint64_t> out;
  for (const auto& v : field(doc, key).as_array()) out.push_back(v.as_uint());
  return out;
}

template <typename T>
std::vector<T> get_nums(const Value& value) {
  std::vector<T> out;
  for (const auto& v : value.as_array()) out.push_back(static_cast<T>(v.as_int()));
  return out;
}

template <typename T>
std::vector<T> get_nums(const Value& doc, std::string_view key) {
  return get_nums<T>(field(doc, key));
}

std::vector<bool> get_bools(const Value& doc, std::string_view key) {
  std::vector<bool> out;
  for (const auto& v : field(doc, key).as_array()) {
    const std::uint64_t bit = v.as_uint();
    if (bit > 1) bad("field '" + std::string(key) + "' has a non-0/1 entry");
    out.push_back(bit != 0);
  }
  return out;
}

template <typename T>
std::vector<std::vector<T>> get_nested(const Value& doc, std::string_view key) {
  std::vector<std::vector<T>> out;
  for (const auto& row : field(doc, key).as_array()) out.push_back(get_nums<T>(row));
  return out;
}

std::array<std::uint64_t, bgp::kSelectionRuleCount> get_rules(const Value& value) {
  const auto& arr = value.as_array();
  if (arr.size() != bgp::kSelectionRuleCount) bad("selection-rule histogram length mismatch");
  std::array<std::uint64_t, bgp::kSelectionRuleCount> out{};
  for (std::size_t i = 0; i < arr.size(); ++i) out[i] = arr[i].as_uint();
  return out;
}

const Array& get_tuple(const Value& value, std::size_t arity, const char* what) {
  const auto& arr = value.as_array();
  if (arr.size() != arity) bad(std::string(what) + ": expected " + std::to_string(arity) +
                               " elements, got " + std::to_string(arr.size()));
  return arr;
}

}  // namespace

util::json::Value engine_state_json(const engine::EngineState& state) {
  Object doc;
  doc.emplace_back("schema", kCkptSchema);
  doc.emplace_back("instance", state.instance);
  doc.emplace_back("protocol", state.protocol);
  doc.emplace_back("node_count", state.node_count);
  doc.emplace_back("path_count", state.path_count);
  doc.emplace_back("link_count", state.link_count);
  doc.emplace_back("mrai", state.mrai);
  doc.emplace_back("stale_timer", state.stale_timer);
  doc.emplace_back("next_seq", state.next_seq);
  doc.emplace_back("session_msg_seq", state.session_msg_seq);
  doc.emplace_back("deliveries", state.deliveries);
  doc.emplace_back("end_time", state.end_time);

  {
    Array queue;
    queue.reserve(state.queue.size());
    for (const auto& e : state.queue) {
      Array tuple;
      tuple.reserve(10);
      tuple.emplace_back(e.time);
      tuple.emplace_back(e.seq);
      tuple.emplace_back(static_cast<std::uint64_t>(e.kind));
      tuple.emplace_back(static_cast<std::int64_t>(static_cast<std::int64_t>(e.from)));
      tuple.emplace_back(static_cast<std::int64_t>(static_cast<std::int64_t>(e.to)));
      tuple.emplace_back(static_cast<std::int64_t>(static_cast<std::int64_t>(e.path)));
      tuple.emplace_back(static_cast<std::uint64_t>(e.announce ? 1 : 0));
      tuple.emplace_back(e.epoch);
      tuple.emplace_back(static_cast<std::int64_t>(e.cost));
      // 10th element (since the causal-lineage change): the causal parent
      // seq, -1 for roots.  Readers accept the pre-lineage 9-tuple too.
      tuple.emplace_back(e.pid == engine::kNoCause
                             ? std::int64_t{-1}
                             : static_cast<std::int64_t>(e.pid));
      queue.emplace_back(std::move(tuple));
    }
    doc.emplace_back("queue", std::move(queue));
  }

  {
    Array nodes;
    nodes.reserve(state.nodes.size());
    for (const auto& snap : state.nodes) {
      Object node;
      node.emplace_back("holders", nested_num_array(snap.holders));
      node.emplace_back("stale", nested_num_array(snap.stale));
      node.emplace_back("own", bool_array(snap.own));
      node.emplace_back("has_best", snap.has_best);
      node.emplace_back("best_path", static_cast<std::int64_t>(snap.best_path));
      node.emplace_back("best_metric", static_cast<std::int64_t>(snap.best_metric));
      node.emplace_back("best_learned_from",
                        static_cast<std::uint64_t>(snap.best_learned_from));
      node.emplace_back("best_is_ebgp", snap.best_is_ebgp);
      node.emplace_back("advertised_out", nested_num_array(snap.advertised_out));
      node.emplace_back("desired_out", nested_num_array(snap.desired_out));
      node.emplace_back("mrai_ready", num_array(snap.mrai_ready));
      node.emplace_back("flush_scheduled", bool_array(snap.flush_scheduled));
      nodes.emplace_back(std::move(node));
    }
    doc.emplace_back("nodes", std::move(nodes));
  }

  doc.emplace_back("session_last_delivery", num_array(state.session_last_delivery));
  doc.emplace_back("session_epoch", uint_array(state.session_epoch));
  doc.emplace_back("session_admin_down", bool_array(state.session_admin_down));
  doc.emplace_back("node_up", bool_array(state.node_up));
  doc.emplace_back("graceful_down", bool_array(state.graceful_down));
  doc.emplace_back("gr_generation", uint_array(state.gr_generation));
  doc.emplace_back("fib", num_array(state.fib));
  doc.emplace_back("fib_frozen", bool_array(state.fib_frozen));
  doc.emplace_back("ebgp_live", bool_array(state.ebgp_live));
  doc.emplace_back("link_cost", num_array(state.link_cost));
  doc.emplace_back("link_down", bool_array(state.link_down));

  {
    Array igp;
    igp.reserve(state.igp_log.size());
    for (const auto& snapshot : state.igp_log) {
      Array tuple;
      tuple.emplace_back(snapshot.time);
      tuple.emplace_back(num_array(snapshot.effective));
      igp.emplace_back(std::move(tuple));
    }
    doc.emplace_back("igp_log", std::move(igp));
  }

  {
    Object counters;
    for (const engine::EngineCounterField& field : engine::kEngineCounterFields) {
      if (!field.ckpt.empty()) counters.emplace_back(field.ckpt, state.counters.*field.member);
    }
    doc.emplace_back("counters", std::move(counters));
  }

  doc.emplace_back("decisions_by_rule", rule_array(state.decisions_by_rule));
  {
    Array by_node;
    by_node.reserve(state.decisions_by_node.size());
    for (const auto& rules : state.decisions_by_node) by_node.emplace_back(rule_array(rules));
    doc.emplace_back("decisions_by_node", std::move(by_node));
  }
  doc.emplace_back("flips_by_node", uint_array(state.flips_by_node));

  {
    Array flaps;
    flaps.reserve(state.flap_log.size());
    for (const auto& r : state.flap_log) {
      Array tuple;
      tuple.emplace_back(r.time);
      tuple.emplace_back(static_cast<std::uint64_t>(r.node));
      tuple.emplace_back(static_cast<std::int64_t>(static_cast<std::int64_t>(r.old_best)));
      tuple.emplace_back(static_cast<std::int64_t>(static_cast<std::int64_t>(r.new_best)));
      flaps.emplace_back(std::move(tuple));
    }
    doc.emplace_back("flap_log", std::move(flaps));
  }
  {
    Array faults;
    faults.reserve(state.fault_log.size());
    for (const auto& r : state.fault_log) {
      Array tuple;
      tuple.emplace_back(r.time);
      tuple.emplace_back(static_cast<std::uint64_t>(r.kind));
      tuple.emplace_back(static_cast<std::int64_t>(static_cast<std::int64_t>(r.a)));
      tuple.emplace_back(static_cast<std::int64_t>(static_cast<std::int64_t>(r.b)));
      tuple.emplace_back(static_cast<std::int64_t>(r.cost));
      faults.emplace_back(std::move(tuple));
    }
    doc.emplace_back("fault_log", std::move(faults));
  }
  {
    Array fibs;
    fibs.reserve(state.fib_log.size());
    for (const auto& r : state.fib_log) {
      Array tuple;
      tuple.emplace_back(r.time);
      tuple.emplace_back(static_cast<std::uint64_t>(r.node));
      tuple.emplace_back(static_cast<std::int64_t>(static_cast<std::int64_t>(r.old_path)));
      tuple.emplace_back(static_cast<std::int64_t>(static_cast<std::int64_t>(r.new_path)));
      fibs.emplace_back(std::move(tuple));
    }
    doc.emplace_back("fib_log", std::move(fibs));
  }
  return Value(std::move(doc));
}

engine::EngineState parse_engine_state(const util::json::Value& doc) {
  if (!doc.is_object()) bad("document is not an object");
  const Value* schema = doc.find("schema");
  if (schema == nullptr || !schema->is_string() || schema->as_string() != kCkptSchema) {
    bad("schema mismatch (want '" + std::string(kCkptSchema) + "')");
  }

  engine::EngineState state;
  state.instance = field(doc, "instance").as_string();
  state.protocol = field(doc, "protocol").as_string();
  state.node_count = get_uint(doc, "node_count");
  state.path_count = get_uint(doc, "path_count");
  state.link_count = get_uint(doc, "link_count");
  state.mrai = get_uint(doc, "mrai");
  state.stale_timer = get_uint(doc, "stale_timer");
  state.next_seq = get_uint(doc, "next_seq");
  state.session_msg_seq = get_uint(doc, "session_msg_seq");
  state.deliveries = get_uint(doc, "deliveries");
  state.end_time = get_uint(doc, "end_time");

  for (const auto& entry : field(doc, "queue").as_array()) {
    // 9 elements = pre-lineage checkpoint (every pending event becomes a
    // causal root on restore), 10 = with the trailing pid element.
    const auto& tuple = entry.as_array();
    if (tuple.size() != 9 && tuple.size() != 10) {
      bad("queue entry: expected 9 or 10 elements, got " +
          std::to_string(tuple.size()));
    }
    engine::EngineState::PendingEvent e;
    e.time = tuple[0].as_uint();
    e.seq = tuple[1].as_uint();
    const std::uint64_t kind = tuple[2].as_uint();
    if (kind > 0xFF) bad("queue entry kind out of range");
    e.kind = static_cast<std::uint8_t>(kind);
    e.from = static_cast<NodeId>(tuple[3].as_int());
    e.to = static_cast<NodeId>(tuple[4].as_int());
    e.path = static_cast<PathId>(tuple[5].as_int());
    e.announce = tuple[6].as_uint() != 0;
    e.epoch = tuple[7].as_uint();
    e.cost = tuple[8].as_int();
    if (tuple.size() == 10) {
      const std::int64_t pid = tuple[9].as_int();
      e.pid = pid < 0 ? engine::kNoCause : static_cast<std::uint64_t>(pid);
    }
    state.queue.push_back(e);
  }

  for (const auto& entry : field(doc, "nodes").as_array()) {
    engine::EngineState::NodeSnapshot snap;
    snap.holders = get_nested<NodeId>(entry, "holders");
    snap.stale = get_nested<NodeId>(entry, "stale");
    snap.own = get_bools(entry, "own");
    snap.has_best = field(entry, "has_best").as_bool();
    snap.best_path = static_cast<PathId>(field(entry, "best_path").as_int());
    snap.best_metric = field(entry, "best_metric").as_int();
    snap.best_learned_from = static_cast<BgpId>(get_uint(entry, "best_learned_from"));
    snap.best_is_ebgp = field(entry, "best_is_ebgp").as_bool();
    snap.advertised_out = get_nested<PathId>(entry, "advertised_out");
    snap.desired_out = get_nested<PathId>(entry, "desired_out");
    snap.mrai_ready = get_nums<engine::SimTime>(entry, "mrai_ready");
    snap.flush_scheduled = get_bools(entry, "flush_scheduled");
    state.nodes.push_back(std::move(snap));
  }

  state.session_last_delivery = get_nums<engine::SimTime>(doc, "session_last_delivery");
  state.session_epoch = get_uints(doc, "session_epoch");
  state.session_admin_down = get_bools(doc, "session_admin_down");
  state.node_up = get_bools(doc, "node_up");
  state.graceful_down = get_bools(doc, "graceful_down");
  state.gr_generation = get_uints(doc, "gr_generation");
  state.fib = get_nums<PathId>(doc, "fib");
  state.fib_frozen = get_bools(doc, "fib_frozen");
  state.ebgp_live = get_bools(doc, "ebgp_live");
  state.link_cost = get_nums<Cost>(doc, "link_cost");
  state.link_down = get_bools(doc, "link_down");

  for (const auto& entry : field(doc, "igp_log").as_array()) {
    const auto& tuple = get_tuple(entry, 2, "igp_log entry");
    engine::EngineState::IgpSnapshot snapshot;
    snapshot.time = tuple[0].as_uint();
    snapshot.effective = get_nums<Cost>(tuple[1]);
    state.igp_log.push_back(std::move(snapshot));
  }

  const Value& counters = field(doc, "counters");
  for (const engine::EngineCounterField& field : engine::kEngineCounterFields) {
    if (!field.ckpt.empty()) state.counters.*field.member = get_uint(counters, field.ckpt);
  }

  state.decisions_by_rule = get_rules(field(doc, "decisions_by_rule"));
  for (const auto& rules : field(doc, "decisions_by_node").as_array()) {
    state.decisions_by_node.push_back(get_rules(rules));
  }
  state.flips_by_node = get_uints(doc, "flips_by_node");

  for (const auto& entry : field(doc, "flap_log").as_array()) {
    const auto& tuple = get_tuple(entry, 4, "flap_log entry");
    engine::EventEngine::FlapRecord r;
    r.time = tuple[0].as_uint();
    r.node = static_cast<NodeId>(tuple[1].as_uint());
    r.old_best = static_cast<PathId>(tuple[2].as_int());
    r.new_best = static_cast<PathId>(tuple[3].as_int());
    state.flap_log.push_back(r);
  }
  for (const auto& entry : field(doc, "fault_log").as_array()) {
    const auto& tuple = get_tuple(entry, 5, "fault_log entry");
    engine::EventEngine::FaultRecord r;
    r.time = tuple[0].as_uint();
    const std::uint64_t kind = tuple[1].as_uint();
    if (kind > static_cast<std::uint64_t>(engine::FaultKind::kLinkUp)) {
      bad("fault_log entry kind out of range");
    }
    r.kind = static_cast<engine::FaultKind>(kind);
    r.a = static_cast<NodeId>(tuple[2].as_int());
    r.b = static_cast<NodeId>(tuple[3].as_int());
    r.cost = tuple[4].as_int();
    state.fault_log.push_back(r);
  }
  for (const auto& entry : field(doc, "fib_log").as_array()) {
    const auto& tuple = get_tuple(entry, 4, "fib_log entry");
    engine::EventEngine::FibRecord r;
    r.time = tuple[0].as_uint();
    r.node = static_cast<NodeId>(tuple[1].as_uint());
    r.old_path = static_cast<PathId>(tuple[2].as_int());
    r.new_path = static_cast<PathId>(tuple[3].as_int());
    state.fib_log.push_back(r);
  }
  return state;
}

bool save_checkpoint(const std::string& path, const engine::EngineState& state) {
  return util::json::write_file_atomic(path, engine_state_json(state));
}

engine::EngineState load_checkpoint(const std::string& path) {
  std::string error;
  auto state = try_load_checkpoint(path, &error);
  if (!state) throw std::runtime_error("load_checkpoint: " + error);
  return *std::move(state);
}

std::optional<engine::EngineState> try_load_checkpoint(const std::string& path,
                                                       std::string* error) {
  std::string read_error;
  const auto doc = util::json::read_file(path, &read_error);
  if (!doc) {
    if (error != nullptr) *error = read_error;
    return std::nullopt;
  }
  try {
    return parse_engine_state(*doc);
  } catch (const std::runtime_error& e) {
    if (error != nullptr) *error = path + ": " + e.what();
    return std::nullopt;
  }
}

}  // namespace ibgp::ckpt
