// libhinj: the Hardware-fault INJection instrumentation layer (paper §V-B).
//
// Two halves:
//  * Client — linked into the firmware. Drivers call sensor_read() from
//    their read() procedures; the mode-set call site calls update_mode().
//    The client serializes these into protocol messages.
//  * Server — owned by the engine. Decodes messages, forwards them to a
//    FaultDirector (the scheduler in Avis; a no-op in golden runs), and
//    returns the fail/pass decision.
//
// Keeping the serialized boundary means the firmware cannot observe anything
// about the engine except the per-read decision — the same isolation the
// paper gets from its RPC.
//
// Every live sensor instance is read on every 1 kHz firmware step (the iris
// suite has ten; the paper grid averages ~8.4 reads per simulated ms), so
// the read path is the inner loop of every experiment. Two mechanisms keep
// it cheap:
//  * Read leases. A director that knows a sensor's answer stays "pass" up
//    to some time says so (FaultDirector::pass_until); the response carries
//    that lease and the client answers the sensor's reads before it
//    locally. Avis's scheduler fixes every injection time before the run,
//    so a scheduled run makes one round trip per sensor instance plus one
//    per activation. Server::set_director revokes every lease.
//  * Connection-owned frame buffers for the round trips that remain: the
//    client encodes each request into its reusable request buffer, the
//    server decodes it in place and encodes any response into the client's
//    reusable response buffer. After the first frame warms the buffers up,
//    a read performs zero heap allocations, leased or not
//    (tests/test_hinj_alloc.cc pins this), while the bytes crossing the
//    boundary stay identical to the general encode()/decode() path.
#pragma once

#include <array>
#include <functional>
#include <limits>
#include <memory>
#include <span>
#include <string_view>
#include <vector>

#include "hinj/messages.h"
#include "sensors/sensor_types.h"
#include "util/checked.h"

namespace avis::hinj {

// Engine-side policy: which reads to fail, plus visibility into mode
// transitions and heartbeats. `mode_name` is a view over the decoded frame,
// valid only for the duration of the callback — directors that keep mode
// names (e.g. core::RecordingDirector) own their copies.
class FaultDirector {
 public:
  virtual ~FaultDirector() = default;

  // Return true to fail this read (the instance latches failed afterwards).
  virtual bool should_fail(const sensors::SensorId& sensor, std::int64_t time_ms) = 0;

  // Read lease, asked after should_fail(sensor, time_ms) returned false:
  // return L such that should_fail(sensor, t) would return false for every
  // t in [time_ms, L) while this director stays bound to the server. The
  // client then answers those reads locally, without calling should_fail,
  // so only a director whose answer is a pure function of (sensor, t) up
  // to L may lease. A client's reads arrive in non-decreasing time within
  // one binding (the firmware clock). The default, time_ms, grants no
  // lease: every read is a round trip.
  virtual std::int64_t pass_until(const sensors::SensorId& sensor, std::int64_t time_ms) {
    (void)sensor;
    return time_ms;
  }

  // A time F from which every answer is final: should_fail(sensor, t)
  // returns the same for each sensor at every t >= F, so once reads at F
  // have latched their failures, no later read changes which instances are
  // alive. The harness fast-forwards an absorbing tail only past F. The
  // default, never, suits a director whose answers nothing bounds.
  virtual std::int64_t answers_final_from() const {
    return std::numeric_limits<std::int64_t>::max();
  }

  virtual void on_mode_update(std::uint16_t mode_id, std::string_view mode_name,
                              std::int64_t time_ms) = 0;

  virtual void on_heartbeat(std::int64_t time_ms) { (void)time_ms; }
};

// A director that never injects, so every read is leased for good.
class NullDirector final : public FaultDirector {
 public:
  bool should_fail(const sensors::SensorId&, std::int64_t) override { return false; }
  std::int64_t pass_until(const sensors::SensorId&, std::int64_t) override {
    return std::numeric_limits<std::int64_t>::max();
  }
  void on_mode_update(std::uint16_t, std::string_view, std::int64_t) override {}
};

// Engine side: decode frames, dispatch, encode responses.
class Server {
 public:
  explicit Server(FaultDirector& director) : director_(&director) {}

  // Zero-allocation dispatch: decodes one frame in place and, when the
  // message warrants a response (only ReadRequest does), encodes it into
  // `response` (cleared first). ReadRequest/ReadResponse take the
  // fixed-size fast path; the rare string-carrying ModeUpdate decodes its
  // mode name as a string_view over the frame, so even mode transitions
  // cross the wire without a heap allocation on the server side.
  void handle_frame(std::span<const std::uint8_t> frame, ByteWriter& response) {
    response.clear();
    ByteReader r(frame);
    switch (static_cast<MessageType>(r.u8())) {
      case MessageType::kReadRequest: {
        const std::int64_t time_ms = r.i64();
        const sensors::SensorId sensor = decode_sensor_id(r);
        const bool fail = director_->should_fail(sensor, time_ms);
        encode_read_response(response, fail,
                             fail ? time_ms : director_->pass_until(sensor, time_ms));
        return;
      }
      case MessageType::kModeUpdate: {
        const std::int64_t time_ms = r.i64();
        const std::uint16_t mode_id = r.u16();
        director_->on_mode_update(mode_id, r.str_view(), time_ms);
        return;
      }
      case MessageType::kHeartbeat: {
        director_->on_heartbeat(r.i64());
        return;
      }
      case MessageType::kReadResponse:
        throw WireError("unexpected message direction");
    }
    throw WireError("unknown hinj message type");
  }

  // Handles one frame; returns the response frame if the message warrants
  // one (only ReadRequest does). Convenience wrapper over handle_frame for
  // callers without a connection buffer (tests, one-shot tools).
  std::vector<std::uint8_t> handle(const std::vector<std::uint8_t>& frame) {
    ByteWriter response;
    handle_frame(frame, response);
    return response.take();
  }

  // Rebinding revokes every lease the previous director granted: clients
  // compare generation() against the one their leases were granted under.
  void set_director(FaultDirector& director) {
    director_ = &director;
    ++generation_;
  }

  std::uint64_t generation() const { return generation_; }

 private:
  FaultDirector* director_;
  std::uint64_t generation_ = 0;
};

// Firmware side. The instrumented call sites are:
//   * every sensor driver's read(): `if (hinj.sensor_read(id, now)) -> fail`
//   * the mode controller's set_mode(): `hinj.update_mode(...)`
// One Client is one connection: it owns the request/response frame buffers
// its calls reuse, so a long-lived client (e.g. in a reused
// core::ExperimentContext) keeps its warmed-up capacity across runs, and
// the lease table of the director currently bound to its server.
class Client {
 public:
  explicit Client(Server& server) : server_(&server) {
    request_.reserve(kFixedFrameCapacity);
    response_.reserve(kFixedFrameCapacity);
    p_revoke_leases();
  }

  // Returns true if the engine directs this read to fail.
  bool sensor_read(const sensors::SensorId& sensor, std::int64_t time_ms) {
    if (lease_generation_ != server_->generation()) p_revoke_leases();
    // Instances past the table (no suite has them) always take the wire,
    // as do type bytes outside the taxonomy, which the server rejects.
    const auto type = static_cast<std::size_t>(sensor.type);
    std::int64_t* lease = type < leases_.size() && sensor.instance < kLeasedInstances
                              ? &leases_[type][sensor.instance]
                              : nullptr;
    if (lease != nullptr && time_ms < *lease) return false;
    return p_read_round_trip(sensor, time_ms, lease);
  }

  void update_mode(std::uint16_t mode_id, std::string_view mode_name, std::int64_t time_ms) {
    request_.clear();
    encode_mode_update(request_, time_ms, mode_id, mode_name);
    server_->handle_frame(request_.span(), response_);
  }

  void heartbeat(std::int64_t time_ms) {
    request_.clear();
    encode_heartbeat(request_, time_ms);
    server_->handle_frame(request_.span(), response_);
  }

 private:
  static constexpr std::uint8_t kLeasedInstances = 8;

  // The wire path, kept out of line so the leased check inlines into the
  // sensor drivers.
  [[gnu::noinline]] bool p_read_round_trip(const sensors::SensorId& sensor, std::int64_t time_ms,
                                           std::int64_t* lease) {
    request_.clear();
    encode_read_request(request_, time_ms, sensor);
    server_->handle_frame(request_.span(), response_);
    util::expects(!response_.empty(), "hinj read request must produce a response");
    ByteReader r(response_.span());
    util::expects(static_cast<MessageType>(r.u8()) == MessageType::kReadResponse,
                  "hinj read response has wrong type");
    const bool fail = r.u8() != 0;
    const std::int64_t pass_until = r.i64();
    if (lease != nullptr) *lease = pass_until;
    return fail;
  }

  void p_revoke_leases() {
    for (auto& per_type : leases_) per_type.fill(std::numeric_limits<std::int64_t>::min());
    lease_generation_ = server_->generation();
  }

  Server* server_;
  ByteWriter request_;
  ByteWriter response_;
  std::array<std::array<std::int64_t, kLeasedInstances>, sensors::kAllSensorTypes.size()>
      leases_{};
  std::uint64_t lease_generation_ = 0;
};

}  // namespace avis::hinj
