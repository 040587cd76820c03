#include "core/context.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <limits>
#include <memory>
#include <string>
#include <string_view>
#include <utility>

#include "classical/socket_transport.hpp"
#include "core/env.hpp"
#include "core/protocol_tags.hpp"
#include "core/sim_dist.hpp"
#include "core/sim_wire.hpp"
#include "service/session_client.hpp"
#include "sim/circuit_cache.hpp"
#include "sim/sharded_statevector.hpp"
#include "sim/thread_pool.hpp"

namespace qmpi {

Context::Context(classical::Comm user_comm,
                 std::shared_ptr<sim::SimClient> sim, Trace* trace)
    : user_comm_(std::move(user_comm)),
      protocol_comm_(user_comm_.dup()),
      sim_(std::move(sim)),
      trace_(trace),
      tracker_(std::make_shared<ResourceTracker>()) {}

Context Context::split(int color, int key) {
  classical::Comm sub_user = user_comm_.split(color, key);
  if (sub_user.is_null()) {
    // Null context: the rank takes no part in the subgroup. (The protocol
    // dup below is collective over subgroup members only, so null ranks
    // must not join it.)
    return Context(classical::Comm(), classical::Comm(), nullptr, trace_,
                   tracker_);
  }
  classical::Comm sub_protocol = sub_user.dup();
  return Context(std::move(sub_user), std::move(sub_protocol), sim_,
                 trace_, tracker_);
}

Context Context::duplicate() {
  classical::Comm dup_user = user_comm_.dup();
  classical::Comm dup_protocol = dup_user.dup();
  return Context(std::move(dup_user), std::move(dup_protocol), sim_,
                 trace_, tracker_);
}

void Context::trace_event(TraceEvent e) {
  if (trace_ != nullptr) trace_->record(std::move(e));
}

// ---------------------------------------------------------------- qubits ---

QubitArray Context::alloc_qmem(std::size_t count) {
  auto ids = sim_->allocate(count);
  std::vector<Qubit> qubits;
  qubits.reserve(count);
  for (const auto id : ids) qubits.push_back(Qubit{id});
  return QubitArray(std::move(qubits));
}

void Context::free_qmem(const Qubit* qubits, std::size_t count) {
  std::vector<sim::QubitId> ids;
  ids.reserve(count);
  for (std::size_t i = 0; i < count; ++i) ids.push_back(qubits[i].id);
  try {
    sim_->deallocate_classical(ids);
  } catch (const sim::SimulatorError& e) {
    throw QmpiError(std::string("free_qmem: ") + e.what());
  }
}

// ----------------------------------------------------------------- gates ---

void Context::gate1(const char* name, Qubit q, const sim::Gate1Q& gate) {
  sim_->apply(gate, q.id);
  trace_event({TraceEvent::Kind::kLocalGate, rank(), -1, 0, name});
}

void Context::rotation(const char* name, Qubit q, const sim::Gate1Q& gate) {
  sim_->apply(gate, q.id);
  trace_event({TraceEvent::Kind::kRotation, rank(), -1, 0, name});
}

void Context::cnot(Qubit control, Qubit target) {
  sim_->cnot(control.id, target.id);
  trace_event({TraceEvent::Kind::kLocalGate, rank(), -1, 0, "CNOT"});
}

void Context::cz(Qubit control, Qubit target) {
  sim_->cz(control.id, target.id);
  trace_event({TraceEvent::Kind::kLocalGate, rank(), -1, 0, "CZ"});
}

void Context::toffoli(Qubit c0, Qubit c1, Qubit target) {
  sim_->toffoli(c0.id, c1.id, target.id);
  trace_event({TraceEvent::Kind::kLocalGate, rank(), -1, 0, "CCX"});
}

bool Context::measure(Qubit q) {
  const bool r = sim_->measure(q.id);
  trace_event({TraceEvent::Kind::kMeasurement, rank(), -1, 0, "M"});
  return r;
}

bool Context::measure_x(Qubit q) {
  const bool r = sim_->measure_x(q.id);
  trace_event({TraceEvent::Kind::kMeasurement, rank(), -1, 0, "MX"});
  return r;
}

bool Context::measure_parity(std::span<const Qubit> qubits) {
  std::vector<sim::QubitId> ids;
  ids.reserve(qubits.size());
  for (const Qubit q : qubits) ids.push_back(q.id);
  const bool r = sim_->measure_parity(ids);
  trace_event({TraceEvent::Kind::kMeasurement, rank(), -1, 0, "MZZ"});
  return r;
}

double Context::probability_one(Qubit q) {
  return sim_->probability_one(q.id);
}

// ------------------------------------------------------------------- EPR ---

using detail::direction_sub;
using detail::encode_tag;

namespace {

/// User-facing tags must stay below the reserved band (see
/// core/protocol_tags.hpp): a tag at or above kCollTag would let a user
/// receive steal a collective's EPR rendezvous or fix-up bits — corrupting
/// quantum state far from the offending call — so reject it up front.
void check_user_tag(int tag, const char* where) {
  if (tag < 0 || tag > detail::kMaxUserTag) {
    throw QmpiError(std::string(where) + ": tag " + std::to_string(tag) +
                    " is outside the user tag range [0, " +
                    std::to_string(detail::kMaxUserTag) +
                    "]; tags >= 2^20 are reserved for internal collective "
                    "and reduction protocols (core/protocol_tags.hpp)");
  }
}

}  // namespace

void Context::epr_begin(Qubit qubit, int peer, int ptag) {
  if (peer == rank() || peer < 0 || peer >= size()) {
    throw QmpiError("prepare_epr: peer must be a different, valid rank");
  }
  // The paper requires a fresh |0> qubit; catch protocol bugs early.
  if (probability_one(qubit) > 1e-9) {
    throw QmpiError("prepare_epr: qubit is not in |0>");
  }
  // Rendezvous initiation: the higher-ranked endpoint eagerly posts its
  // qubit id (a simulation artifact; on a real machine the interconnect
  // hardware pairs the photonic links).
  if (rank() > peer) {
    protocol_comm_.send(qubit.id, peer, ptag);
  }
}

void Context::epr_complete(Qubit qubit, int peer, int ptag) {
  // The lower-ranked endpoint performs the entangling operations and acks;
  // the higher-ranked endpoint may not touch its half before the ack.
  if (rank() < peer) {
    const auto peer_id = protocol_comm_.recv<sim::QubitId>(peer, ptag);
    sim_->apply(sim::gate_h(), qubit.id);
    sim_->cnot(qubit.id, peer_id);
    protocol_comm_.send(std::uint8_t{1}, peer, ptag);  // ack
    tracker_->count_epr_pair();
    trace_event({TraceEvent::Kind::kEprEstablish, rank(), peer, 0, "EPR"});
  } else {
    (void)protocol_comm_.recv<std::uint8_t>(peer, ptag);
  }
}

void Context::establish_epr(Qubit qubit, int peer, int ptag) {
  epr_begin(qubit, peer, ptag);
  epr_complete(qubit, peer, ptag);
}

void Context::prepare_epr(Qubit qubit, int peer, int tag) {
  check_user_tag(tag, "prepare_epr");
  establish_epr(qubit, peer, encode_tag(tag, 0));
}

QRequest Context::iprepare_epr(Qubit qubit, int peer, int tag) {
  check_user_tag(tag, "iprepare_epr");
  return QRequest([this, qubit, peer, tag] { prepare_epr(qubit, peer, tag); });
}

// ----------------------------------------------------- p2p copy protocol ---

Qubit Context::send_begin(int dest, int ptag) {
  QubitArray epr = alloc_qmem(1);
  epr_begin(epr[0], dest, ptag);
  return epr[0];
}

void Context::send_data(Qubit q, Qubit epr_half, int dest, int ptag) {
  cnot(q, epr_half);
  const bool m = measure(epr_half);
  // Reset the measured half to |0> so it can be freed.
  if (m) x(epr_half);
  free_qmem(&epr_half, 1);
  protocol_comm_.send(static_cast<std::uint8_t>(m), dest, ptag);
  tracker_->count_classical_bits(1);
  trace_event({TraceEvent::Kind::kClassicalSend, rank(), dest, 1, "fixup"});
}

void Context::send_one(Qubit q, int dest, int tag) {
  const int ptag = encode_tag(tag, direction_sub(rank(), dest));
  const Qubit e = send_begin(dest, ptag);
  epr_complete(e, dest, ptag);
  send_data(q, e, dest, ptag);
}

void Context::recv_data(Qubit q, int source, int ptag) {
  const auto m = protocol_comm_.recv<std::uint8_t>(source, ptag);
  if (m != 0) x(q);
}

void Context::recv_one(Qubit q, int source, int tag) {
  const int ptag = encode_tag(tag, direction_sub(source, rank()));
  epr_begin(q, source, ptag);
  epr_complete(q, source, ptag);
  recv_data(q, source, ptag);
}

void Context::unsend_one(Qubit q, int dest, int tag) {
  const int ptag = encode_tag(tag, direction_sub(rank(), dest));
  const auto m = protocol_comm_.recv<std::uint8_t>(dest, ptag);
  if (m != 0) z(q);
}

void Context::unrecv_one(Qubit q, int source, int tag) {
  // Fig. 1(b): H, measure; peer fixes with Z. Reset local qubit to |0> so
  // the caller can free or reuse it.
  const int ptag = encode_tag(tag, direction_sub(source, rank()));
  h(q);
  const bool m = measure(q);
  if (m) x(q);
  protocol_comm_.send(static_cast<std::uint8_t>(m), source, ptag);
  tracker_->count_classical_bits(1);
  trace_event({TraceEvent::Kind::kClassicalSend, rank(), source, 1, "unfix"});
}

void Context::send(const Qubit* qubits, std::size_t count, int dest, int tag) {
  check_user_tag(tag, "send");
  const ResourceTracker::Scope scope(*tracker_, OpCategory::kCopy);
  for (std::size_t i = 0; i < count; ++i) send_one(qubits[i], dest, tag);
}

void Context::recv(const Qubit* qubits, std::size_t count, int source,
                   int tag) {
  check_user_tag(tag, "recv");
  const ResourceTracker::Scope scope(*tracker_, OpCategory::kCopy);
  for (std::size_t i = 0; i < count; ++i) recv_one(qubits[i], source, tag);
}

void Context::unsend(const Qubit* qubits, std::size_t count, int dest,
                     int tag) {
  check_user_tag(tag, "unsend");
  const ResourceTracker::Scope scope(*tracker_, OpCategory::kUncopy);
  for (std::size_t i = 0; i < count; ++i) unsend_one(qubits[i], dest, tag);
}

void Context::unrecv(const Qubit* qubits, std::size_t count, int source,
                     int tag) {
  check_user_tag(tag, "unrecv");
  const ResourceTracker::Scope scope(*tracker_, OpCategory::kUncopy);
  for (std::size_t i = 0; i < count; ++i) unrecv_one(qubits[i], source, tag);
}

void Context::sendrecv(const Qubit* send_qubits, std::size_t send_count,
                       int dest, int send_tag, const Qubit* recv_qubits,
                       std::size_t recv_count, int source, int recv_tag) {
  // Implemented with split begin/complete/data phases (as MPI implements
  // Sendrecv over nonblocking primitives) so cyclic exchange patterns —
  // both peers "sending first" — cannot deadlock in the EPR rendezvous.
  // Every pair completes before any data phase: a higher-ranked peer posts
  // all of its qubit ids up front, so its fix-ups queue behind them.
  check_user_tag(send_tag, "sendrecv");
  check_user_tag(recv_tag, "sendrecv");
  const ResourceTracker::Scope scope(*tracker_, OpCategory::kCopy);
  const int stag = encode_tag(send_tag, direction_sub(rank(), dest));
  const int rtag = encode_tag(recv_tag, direction_sub(source, rank()));
  std::vector<Qubit> halves;
  halves.reserve(send_count);
  for (std::size_t i = 0; i < send_count; ++i)
    halves.push_back(send_begin(dest, stag));
  for (std::size_t i = 0; i < recv_count; ++i)
    epr_begin(recv_qubits[i], source, rtag);
  for (std::size_t i = 0; i < send_count; ++i)
    epr_complete(halves[i], dest, stag);
  for (std::size_t i = 0; i < recv_count; ++i)
    epr_complete(recv_qubits[i], source, rtag);
  for (std::size_t i = 0; i < send_count; ++i)
    send_data(send_qubits[i], halves[i], dest, stag);
  for (std::size_t i = 0; i < recv_count; ++i)
    recv_data(recv_qubits[i], source, rtag);
}

void Context::unsendrecv(const Qubit* send_qubits, std::size_t send_count,
                         int dest, int send_tag, const Qubit* recv_qubits,
                         std::size_t recv_count, int source, int recv_tag) {
  unrecv(recv_qubits, recv_count, source, recv_tag);
  unsend(send_qubits, send_count, dest, send_tag);
}

// ----------------------------------------------------- p2p move protocol ---

void Context::send_move_data(Qubit q, Qubit epr_half, int dest, int ptag) {
  // Appendix A.1 QMPI_Send_move: fanout via the EPR half, then remove the
  // local qubit with an X-basis measurement (deferred-measurement CNOT).
  cnot(q, epr_half);
  int r = measure(epr_half) ? 1 : 0;
  h(q);
  r |= measure(q) ? 2 : 0;
  if (r & 1) x(epr_half);
  free_qmem(&epr_half, 1);
  if (r & 2) x(q);  // reset the consumed qubit handle to |0>
  protocol_comm_.send(r, dest, ptag);
  tracker_->count_classical_bits(2);
  trace_event({TraceEvent::Kind::kClassicalSend, rank(), dest, 2, "tp"});
}

void Context::send_move_one(Qubit q, int dest, int tag) {
  const int ptag = encode_tag(tag, direction_sub(rank(), dest));
  const Qubit e = send_begin(dest, ptag);
  epr_complete(e, dest, ptag);
  send_move_data(q, e, dest, ptag);
}

void Context::recv_move_data(Qubit q, int source, int ptag) {
  const int r = protocol_comm_.recv<int>(source, ptag);
  if (r & 1) x(q);
  if (r & 2) z(q);
}

void Context::recv_move_one(Qubit q, int source, int tag) {
  const int ptag = encode_tag(tag, direction_sub(source, rank()));
  epr_begin(q, source, ptag);
  epr_complete(q, source, ptag);
  recv_move_data(q, source, ptag);
}

void Context::send_move(const Qubit* qubits, std::size_t count, int dest,
                        int tag) {
  check_user_tag(tag, "send_move");
  const ResourceTracker::Scope scope(*tracker_, OpCategory::kMove);
  for (std::size_t i = 0; i < count; ++i) send_move_one(qubits[i], dest, tag);
}

void Context::recv_move(const Qubit* qubits, std::size_t count, int source,
                        int tag) {
  check_user_tag(tag, "recv_move");
  const ResourceTracker::Scope scope(*tracker_, OpCategory::kMove);
  for (std::size_t i = 0; i < count; ++i) recv_move_one(qubits[i], source, tag);
}

void Context::unsend_move(const Qubit* qubits, std::size_t count, int dest,
                          int tag) {
  // Teleport the qubits back: the original sender receives.
  check_user_tag(tag, "unsend_move");
  const ResourceTracker::Scope scope(*tracker_, OpCategory::kUnmove);
  for (std::size_t i = 0; i < count; ++i) recv_move_one(qubits[i], dest, tag);
}

void Context::unrecv_move(const Qubit* qubits, std::size_t count, int source,
                          int tag) {
  check_user_tag(tag, "unrecv_move");
  const ResourceTracker::Scope scope(*tracker_, OpCategory::kUnmove);
  for (std::size_t i = 0; i < count; ++i)
    send_move_one(qubits[i], source, tag);
}

void Context::exchange_move(Qubit* qubits, std::size_t count, int dest,
                            int source, int tag) {
  // Split-phase bidirectional teleport: outgoing state leaves via
  // send_move, incoming state lands in freshly allocated qubits that then
  // replace the caller's handles. Phases run as in sendrecv: every begin,
  // then every EPR completion, then the data, so rings and pairwise swaps
  // cannot deadlock and a higher-ranked peer's up-front qubit ids never
  // meet a fix-up read.
  const int stag = encode_tag(tag, direction_sub(rank(), dest));
  const int rtag = encode_tag(tag, direction_sub(source, rank()));
  std::vector<Qubit> halves;
  halves.reserve(count);
  QubitArray incoming = alloc_qmem(count);
  for (std::size_t i = 0; i < count; ++i)
    halves.push_back(send_begin(dest, stag));
  for (std::size_t i = 0; i < count; ++i)
    epr_begin(incoming[i], source, rtag);
  for (std::size_t i = 0; i < count; ++i) epr_complete(halves[i], dest, stag);
  for (std::size_t i = 0; i < count; ++i)
    epr_complete(incoming[i], source, rtag);
  for (std::size_t i = 0; i < count; ++i)
    send_move_data(qubits[i], halves[i], dest, stag);
  for (std::size_t i = 0; i < count; ++i)
    recv_move_data(incoming[i], source, rtag);
  // The old handles are |0> after the move; free them and adopt the
  // incoming qubits in place (MPI_Sendrecv_replace semantics).
  for (std::size_t i = 0; i < count; ++i) {
    free_qmem(&qubits[i], 1);
    qubits[i] = incoming[i];
  }
}

void Context::sendrecv_replace(Qubit* qubits, std::size_t count, int dest,
                               int source, int tag) {
  check_user_tag(tag, "sendrecv_replace");
  const ResourceTracker::Scope scope(*tracker_, OpCategory::kMove);
  exchange_move(qubits, count, dest, source, tag);
}

void Context::unsendrecv_replace(Qubit* qubits, std::size_t count, int dest,
                                 int source, int tag) {
  // Inverse: teleport the replacement back to `source` and recover our
  // original from `dest`.
  check_user_tag(tag, "unsendrecv_replace");
  const ResourceTracker::Scope scope(*tracker_, OpCategory::kUnmove);
  exchange_move(qubits, count, source, dest, tag);
}

// ------------------------------------------------------------ nonblocking ---

QRequest Context::isend(const Qubit* qubits, std::size_t count, int dest,
                        int tag) {
  std::vector<Qubit> copy(qubits, qubits + count);
  return QRequest(
      [this, copy, dest, tag] { send(copy.data(), copy.size(), dest, tag); });
}

QRequest Context::irecv(const Qubit* qubits, std::size_t count, int source,
                        int tag) {
  std::vector<Qubit> copy(qubits, qubits + count);
  return QRequest([this, copy, source, tag] {
    recv(copy.data(), copy.size(), source, tag);
  });
}

QRequest Context::isend_move(const Qubit* qubits, std::size_t count, int dest,
                             int tag) {
  std::vector<Qubit> copy(qubits, qubits + count);
  return QRequest([this, copy, dest, tag] {
    send_move(copy.data(), copy.size(), dest, tag);
  });
}

QRequest Context::irecv_move(const Qubit* qubits, std::size_t count,
                             int source, int tag) {
  std::vector<Qubit> copy(qubits, qubits + count);
  return QRequest([this, copy, source, tag] {
    recv_move(copy.data(), copy.size(), source, tag);
  });
}

// ------------------------------------------------------------- persistent ---

PersistentHandle Context::persistent_init(std::size_t count, int peer,
                                          int tag) {
  check_user_tag(tag, "persistent_init");
  const ResourceTracker::Scope scope(*tracker_, OpCategory::kCopy);
  PersistentHandle handle;
  handle.peer = peer;
  handle.tag = tag;
  QubitArray halves = alloc_qmem(count);
  for (std::size_t i = 0; i < count; ++i) {
    // Sub-channel 3: persistent establishment is direction-agnostic (which
    // side will send is decided at start time). Concurrent persistent
    // handles between the same pair need distinct user tags, as in MPI.
    establish_epr(halves[i], peer, encode_tag(tag, 3));
    handle.epr_halves.push_back(halves[i]);
  }
  handle.armed = true;
  return handle;
}

void Context::start_send(PersistentHandle& handle, const Qubit* qubits,
                         std::size_t count) {
  if (!handle.armed || handle.epr_halves.size() != count) {
    throw QmpiError("start_send: handle not armed for this message size");
  }
  const ResourceTracker::Scope scope(*tracker_, OpCategory::kCopy);
  const int ptag = encode_tag(handle.tag, direction_sub(rank(), handle.peer));
  // Purely classical phase: parity measurement against the pre-established
  // halves + one classical bit per qubit. No EPR pairs are created here.
  for (std::size_t i = 0; i < count; ++i) {
    Qubit e = handle.epr_halves[i];
    cnot(qubits[i], e);
    const bool m = measure(e);
    if (m) x(e);
    free_qmem(&e, 1);
    protocol_comm_.send(static_cast<std::uint8_t>(m), handle.peer, ptag);
    tracker_->count_classical_bits(1);
    trace_event({TraceEvent::Kind::kClassicalSend, rank(), handle.peer, 1,
                 "pfixup"});
  }
  handle.armed = false;
  handle.epr_halves.clear();
}

void Context::start_recv(PersistentHandle& handle, Qubit* out,
                         std::size_t count) {
  if (!handle.armed || handle.epr_halves.size() != count) {
    throw QmpiError("start_recv: handle not armed for this message size");
  }
  const ResourceTracker::Scope scope(*tracker_, OpCategory::kCopy);
  const int ptag = encode_tag(handle.tag, direction_sub(handle.peer, rank()));
  for (std::size_t i = 0; i < count; ++i) {
    const auto m = protocol_comm_.recv<std::uint8_t>(handle.peer, ptag);
    if (m != 0) x(handle.epr_halves[i]);
    out[i] = handle.epr_halves[i];
  }
  handle.armed = false;
  handle.epr_halves.clear();
}

// ------------------------------------------------------------- aggregation ---

namespace {

/// The allreduce operator behind the world-wide resource totals.
ResourceTracker::Counts add_counts(ResourceTracker::Counts x,
                                   const ResourceTracker::Counts& y) {
  return x += y;
}

}  // namespace

ResourceTracker::Counts Context::aggregate_resources(OpCategory category) {
  return user_comm_.allreduce((*tracker_)[category], add_counts);
}

ResourceTracker::Counts Context::aggregate_total() {
  return user_comm_.allreduce(tracker_->total(), add_counts);
}

// ------------------------------------------------------------ job harness ---

namespace {
using env::parse_env_number;
}  // namespace

JobOptions JobOptions::from_env() { return from_env(JobOptions{}); }

JobOptions JobOptions::from_env(JobOptions base) {
  if (const char* seed = env::get("QMPI_SEED")) {
    base.seed = parse_env_number("QMPI_SEED", seed, /*allow_zero=*/true);
  }
  if (const char* backend = env::get("QMPI_BACKEND")) {
    sim::BackendKind kind;
    if (!sim::backend_kind_from_string(backend, kind)) {
      throw QmpiError(std::string("QMPI_BACKEND=\"") + backend +
                      "\" is not a backend (use \"serial\", \"sharded\", or "
                      "\"distributed\")");
    }
    base.backend = kind;
  }
  if (const char* shards = env::get("QMPI_SHARDS")) {
    base.num_shards = static_cast<unsigned>(parse_env_number(
        "QMPI_SHARDS", shards, /*allow_zero=*/false, sim::kMaxShards));
    // Reject bad shard counts at parse time: deferring to backend
    // construction would only trip when the sharded backend is actually
    // selected, silently accepting the typo on serial runs.
    if (!std::has_single_bit(base.num_shards)) {
      throw QmpiError(std::string("QMPI_SHARDS=\"") + shards +
                      "\" must be a power of two <= " +
                      std::to_string(sim::kMaxShards));
    }
  }
  if (const char* threads = env::get("QMPI_SIM_THREADS")) {
    base.sim_threads = static_cast<unsigned>(
        parse_env_number("QMPI_SIM_THREADS", threads, /*allow_zero=*/false,
                         sim::ThreadPool::kMaxLanes));
  }
  if (const char* transport = env::get("QMPI_TRANSPORT")) {
    const std::string_view t(transport);
    if (t == "inproc") {
      base.transport = TransportKind::kInproc;
    } else if (t == "tcp") {
      base.transport = TransportKind::kTcp;
    } else if (t == "service") {
      base.transport = TransportKind::kService;
    } else {
      throw QmpiError(std::string("QMPI_TRANSPORT=\"") + transport +
                      "\" is not a transport (use \"inproc\", \"tcp\", or "
                      "\"service\")");
    }
  }
  if (const char* batch = env::get("QMPI_SIM_BATCH")) {
    const std::string_view b(batch);
    if (b == "on") {
      base.sim_batch_ops = sim::kDefaultSimBatchOps;
    } else if (b == "off") {
      base.sim_batch_ops = 0;
    } else {
      // An explicit size must be a positive number within the cap;
      // "0" is rejected on purpose — disabling is spelled "off".
      base.sim_batch_ops = static_cast<std::size_t>(
          parse_env_number("QMPI_SIM_BATCH", batch, /*allow_zero=*/false,
                           sim::kMaxSimBatchOps));
    }
  }
  if (const char* p2p = env::get("QMPI_P2P")) {
    const std::string_view p(p2p);
    if (p == "on") {
      base.p2p = true;
    } else if (p == "off") {
      base.p2p = false;
    } else {
      throw QmpiError(std::string("QMPI_P2P=\"") + p2p +
                      "\" is not a peer-to-peer mode (use \"on\" or \"off\")");
    }
  }
  if (const char* host = env::get("QMPI_P2P_HOST")) {
    // Same strict contract as every QMPI_* var: set-but-empty is a typo to
    // reject loudly, not a silent fallback to loopback.
    if (*host == '\0') {
      throw QmpiError(
          "QMPI_P2P_HOST is set but empty (give the address peers should "
          "dial, e.g. this node's reachable IP)");
    }
    base.p2p_host = host;
  }
  if (const char* simd = env::get("QMPI_SIMD")) {
    if (!sim::simd::parse_request(simd, base.simd)) {
      throw QmpiError(std::string("QMPI_SIMD=\"") + simd +
                      "\" is not a SIMD tier (use \"auto\", \"scalar\", "
                      "\"avx2\", or \"avx512\")");
    }
  }
  if (const char* host = env::get("QMPI_SERVICE_HOST")) {
    if (*host == '\0') {
      throw QmpiError(
          "QMPI_SERVICE_HOST is set but empty (give the address qmpid "
          "listens on)");
    }
    base.service_host = host;
  }
  if (const char* port = env::get("QMPI_SERVICE_PORT")) {
    base.service_port = static_cast<std::uint16_t>(parse_env_number(
        "QMPI_SERVICE_PORT", port, /*allow_zero=*/false, 65535));
  }
  if (const char* qubits = env::get("QMPI_SERVICE_QUBITS")) {
    base.service_qubits = static_cast<unsigned>(parse_env_number(
        "QMPI_SERVICE_QUBITS", qubits, /*allow_zero=*/false, 62));
  }
  if (const char* cache = env::get("QMPI_CIRCUIT_CACHE")) {
    const std::string_view c(cache);
    if (c == "on") {
      base.circuit_cache = sim::kDefaultCircuitCacheEntries;
    } else if (c == "off") {
      base.circuit_cache = 0;
    } else {
      // Same contract as QMPI_SIM_BATCH: an explicit size must be a
      // positive number; disabling is spelled "off".
      base.circuit_cache = static_cast<std::size_t>(
          parse_env_number("QMPI_CIRCUIT_CACHE", cache, /*allow_zero=*/false,
                           1u << 24));
    }
  }
  return base;
}

namespace {

/// The process-wide hub connection for QMPI_TRANSPORT=tcp jobs. Created
/// lazily on the first tcp run() and reused for every run in this process
/// (the hub brackets each run with its own begin/end barriers).
classical::HubClient& tcp_hub_client() {
  static std::unique_ptr<classical::HubClient> client = [] {
    const char* port_text = env::get("QMPI_TCP_PORT");
    if (port_text == nullptr) {
      throw QmpiError(
          "QMPI_TRANSPORT=tcp requires QMPI_TCP_PORT (qmpirun sets it; for "
          "a manual launch export the hub's port)");
    }
    const auto port = static_cast<std::uint16_t>(
        parse_env_number("QMPI_TCP_PORT", port_text, /*allow_zero=*/false,
                         65535));
    const char* host = env::get("QMPI_TCP_HOST");
    int proc_id = 0;
    if (const char* proc_text = env::get("QMPI_PROC_ID")) {
      proc_id = static_cast<int>(parse_env_number(
          "QMPI_PROC_ID", proc_text, /*allow_zero=*/true, 65535));
    }
    return std::make_unique<classical::HubClient>(
        host != nullptr ? host : "127.0.0.1", port, proc_id);
  }();
  return *client;
}

constexpr auto kCategories = static_cast<std::size_t>(OpCategory::kCount_);

/// What the transport decides for one run(): the classical fabric whose
/// local_ranks() run as threads of this process, the one SimClient they
/// all share, how this process's totals become the job's, and teardown.
/// Everything else about a job is run()'s, once.
class JobFabric {
 public:
  virtual ~JobFabric() = default;

  virtual classical::Transport& transport() = 0;

  /// Called while a ShutdownError is the job's only error: may throw the
  /// job-level cause instead (run() rethrows the ShutdownError otherwise).
  virtual void aborted() {}

  /// After every local rank passed the run boundary: turns this process's
  /// totals in `report` into the job's, and tears down.
  virtual void finish(JobReport& /*report*/) {}

  std::shared_ptr<sim::SimClient> sim;
};

/// inproc: every quantum operation is a call on one in-process
/// SimServer.
class InprocFabric final : public JobFabric {
 public:
  InprocFabric(const JobOptions& options, sim::BackendKind backend)
      : universe_(options.num_ranks),
        server_(options.seed, options.sim_threads, backend,
                options.num_shards) {
    if (options.circuit_cache > 0) {
      // Attach the compiled-cluster cache through SimServer::call so it
      // never races gate traffic. Replay is bit-identical to a cold
      // compile, so this is purely a throughput knob.
      auto cache = std::make_shared<sim::ClusterCache>(options.circuit_cache);
      server_.call([&cache](sim::Backend& b) {
        b.set_cluster_cache(cache);
        return 0;
      });
    }
    sim = std::make_shared<sim::LocalSimClient>(server_);
  }

  classical::Transport& transport() override { return universe_; }

 private:
  classical::Universe universe_;
  sim::SimServer server_;
};

/// service: every quantum operation goes to a session on a resident qmpid,
/// which admits it against its memory budget and fair-schedules its sweeps
/// against other tenants'. The session is this job's private epoch/RNG
/// namespace.
class ServiceFabric final : public JobFabric {
 public:
  ServiceFabric(const JobOptions& options, sim::BackendKind backend)
      : universe_(options.num_ranks) {
    if (options.service_port == 0) {
      throw QmpiError(
          "QMPI_TRANSPORT=service requires QMPI_SERVICE_PORT (qmpid prints "
          "the port it serves on)");
    }
    service::SessionConfig scfg;
    scfg.host = options.service_host;
    scfg.port = options.service_port;
    scfg.seed = options.seed;
    scfg.backend = backend;
    scfg.num_shards = options.num_shards;
    scfg.sim_threads = options.sim_threads;
    scfg.max_qubits = options.service_qubits;
    scfg.max_batch_ops = options.sim_batch_ops;
    // Throws the typed AdmissionError when the session can never fit the
    // service's memory budget; blocks (FIFO) while capacity is merely busy.
    session_ = std::make_shared<service::SessionClient>(scfg);
    sim = session_;
  }

  classical::Transport& transport() override { return universe_; }

  void finish(JobReport& /*report*/) override { session_->close(); }

 private:
  classical::Universe universe_;
  std::shared_ptr<service::SessionClient> session_;
};

/// tcp: this process hosts its contiguous block of the job's ranks, every
/// quantum operation goes to the hub's backend (or, distributed, to the
/// replicas the rank processes host), and the totals are world-summed at
/// the end barrier, so every process reports the same totals.
class TcpFabric final : public JobFabric {
 public:
  explicit TcpFabric(const JobOptions& options)
      : hub_(tcp_hub_client()),
        sim_world_(std::min(hub_.nprocs(), options.num_ranks)),
        cfg_(run_config(options, sim_world_)),
        // Registers the delivery sinks (and the p2p listener address)
        // before the begin barrier, so no peer's first message races them.
        transport_(hub_, options.num_ranks, options.p2p, options.p2p_host) {
    // A distributed replica lives inside its client, whose sim sink must
    // be registered before the begin barrier lets peers address us;
    // processes beyond the sim world host no ranks and no replica. A
    // hub-hosted backend's client comes after the barrier. The client is a
    // local until then, so a failed barrier destroys it before transport_.
    const bool distributed =
        options.backend == sim::BackendKind::kDistributed;
    std::shared_ptr<sim::SimClient> client;
    if (distributed && hub_.proc_id() < sim_world_) {
      client = std::make_shared<DistSimClient>(
          transport_, options.num_ranks, sim_world_, hub_.proc_id(),
          cfg_.num_shards, options.seed, options.sim_threads,
          options.sim_batch_ops);
    }
    hub_.begin_run(cfg_);
    if (!distributed) {
      client = std::make_shared<RemoteSimClient>(hub_, options.sim_batch_ops);
    }
    sim = std::move(client);
  }

  /// The client goes before the transport it is registered with.
  ~TcpFabric() override { sim.reset(); }

  classical::Transport& transport() override { return transport_; }

  /// Every local failure was secondary: the hub's abort reason carries the
  /// cause from the failing process.
  void aborted() override {
    const std::string reason = hub_.dead_reason();
    throw QmpiError("QMPI job aborted" +
                    (reason.empty() ? std::string(" by a peer process")
                                    : ": " + reason));
  }

  /// End barrier: ships [epr_pairs, classical_bits] per category and
  /// receives the world sums. end_run turns a peer failure at the barrier
  /// into a QmpiError with the job-level cause.
  void finish(JobReport& report) override {
    static_assert(
        sizeof(ResourceTracker::Counts) == 2 * sizeof(std::uint64_t),
        "update the RUN_END totals layout for the new Counts field");
    std::vector<std::uint64_t> wire;
    for (const auto& counts : report.totals_by_category) {
      wire.push_back(counts.epr_pairs);
      wire.push_back(counts.classical_bits);
    }
    const auto world = hub_.end_run(wire);
    for (std::size_t c = 0; c < kCategories && 2 * c + 1 < world.size(); ++c) {
      report.totals_by_category[c] = {world[2 * c], world[2 * c + 1]};
    }
  }

 private:
  /// Configuration every process must agree on at the begin barrier.
  static classical::RunConfig run_config(const JobOptions& options,
                                         int sim_world) {
    classical::RunConfig cfg;
    cfg.num_ranks = static_cast<std::uint32_t>(options.num_ranks);
    cfg.seed = options.seed;
    cfg.backend = static_cast<std::uint8_t>(options.backend);
    cfg.num_shards = options.num_shards;
    cfg.sim_threads = options.sim_threads;
    if (options.backend == sim::BackendKind::kDistributed) {
      // Slices are the unit of cross-process ownership: at least one per
      // participating process (rounded to the power of two the sharded
      // layout needs). Every process computes the same count from the
      // same env, and the RunConfig barrier rejects any disagreement.
      const auto floor = std::bit_ceil(static_cast<unsigned>(sim_world));
      cfg.num_shards = std::max(options.num_shards, floor);
      if (cfg.num_shards > sim::kMaxShards) {
        throw QmpiError("QMPI_BACKEND=distributed with " +
                        std::to_string(sim_world) +
                        " processes needs more than the maximum " +
                        std::to_string(sim::kMaxShards) + " slices");
      }
    }
    return cfg;
  }

  classical::HubClient& hub_;
  int sim_world_;
  classical::RunConfig cfg_;
  // Outlives end_run, whose ack guarantees no delivery is still in flight.
  classical::SocketTransport transport_;
};

}  // namespace

JobReport run(const JobOptions& options,
              const std::function<void(Context&)>& fn) {
  if (options.num_ranks < 1) {
    throw QmpiError("run: num_ranks must be >= 1");
  }
  const bool tcp = options.transport == TransportKind::kTcp;
  JobReport report;

  // The distributed backend needs rank processes; on one process it
  // degrades to its world-1 equivalent — the sharded backend — with a
  // notice, so one job script runs under any transport and the report
  // stays honest about what executed.
  sim::BackendKind backend = options.backend;
  if (backend == sim::BackendKind::kDistributed && !tcp) {
    backend = sim::BackendKind::kSharded;
    report.notices.push_back(
        std::string("QMPI_BACKEND=distributed needs the tcp transport; this ") +
        (options.transport == TransportKind::kService ? "service session"
                                                      : "in-process job") +
        " ran the sharded backend (its single-process equivalent)");
  }

  // Resolve the SIMD tier before any backend exists so every sweep of this
  // job runs the selected kernels. Sweeps run here in-process and in the
  // distributed replicas; otherwise the hub or qmpid process resolves its
  // own QMPI_SIMD. Unavailable-ISA fallback is a notice, not an error: the
  // report records what this node would execute.
  const sim::simd::Selection simd = sim::simd::resolve(options.simd);
  if (options.transport == TransportKind::kInproc ||
      (tcp && backend == sim::BackendKind::kDistributed)) {
    sim::simd::set_active(simd.isa);
  }
  if (!simd.notice.empty()) report.notices.push_back(simd.notice);

  std::unique_ptr<JobFabric> fabric;
  if (tcp) {
    fabric = std::make_unique<TcpFabric>(options);
  } else if (options.transport == TransportKind::kService) {
    fabric = std::make_unique<ServiceFabric>(options, backend);
  } else {
    fabric = std::make_unique<InprocFabric>(options, backend);
  }

  // Under tcp the trace covers only the ranks this process hosts.
  Trace trace;
  Trace* trace_ptr = options.enable_trace ? &trace : nullptr;
  const classical::RankBlock block = fabric->transport().local_ranks();
  std::vector<std::array<ResourceTracker::Counts, kCategories>> per_rank(
      static_cast<std::size_t>(block.count));
  const auto rank_body = [&](classical::Comm& world) {
    Context ctx(world, fabric->sim, trace_ptr);
    fn(ctx);
    // Run boundary: every op this rank issued must execute (and any
    // deferred batch error must surface *here*, attributed to a rank, where
    // the root-cause reporting can see it) before the job may complete.
    ctx.sim().fence();
    ctx.classical_comm().barrier();
    auto& mine = per_rank[static_cast<std::size_t>(ctx.rank() - block.first)];
    for (std::size_t c = 0; c < kCategories; ++c) {
      mine[c] = ctx.tracker()[static_cast<OpCategory>(c)];
    }
  };
  try {
    classical::Runtime::run(fabric->transport(), rank_body);
  } catch (const classical::ShutdownError&) {
    fabric->aborted();
    throw;
  }

  for (const auto& rank_counts : per_rank) {
    for (std::size_t c = 0; c < kCategories; ++c) {
      report.totals_by_category[c] += rank_counts[c];
    }
  }
  fabric->finish(report);
  report.trace = trace.snapshot();
  return report;
}

JobReport run(int num_ranks, const std::function<void(Context&)>& fn) {
  // The convenience overload honours the QMPI_* environment overrides, so
  // every example and benchmark binary can switch seed/backend/shards from
  // the command line without touching code.
  JobOptions options = JobOptions::from_env();
  options.num_ranks = num_ranks;
  return run(options, fn);
}

}  // namespace qmpi
