// hinj protocol messages (paper §V-B).
//
// libhinj reports two things to the engine — mode transitions (via
// hinj_update_mode, inserted at the firmware's single mode-set call site)
// and sensor reads (via the call inserted into each driver's read()) — and
// receives one thing back: the scheduler's per-read fail/pass decision,
// together with a read lease — the time up to which that sensor's reads
// are known to pass (hinj::FaultDirector::pass_until), so the client can
// answer them without another round trip.
//
// Two encode/decode paths share one wire layout:
//  * the per-message-type encode_*() helpers write straight into a reusable
//    ByteWriter — the zero-allocation path the Client/Server round trip
//    uses for every instrumented sensor read;
//  * encode(Message)/decode(bytes) wrap the same helpers behind the
//    std::variant, for tests and any caller that wants owned values.
// Because encode(Message) is implemented on top of the helpers, the two
// paths are byte-identical by construction (tests/test_hinj.cc pins this).
#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <variant>

#include "hinj/wire.h"
#include "sensors/sensor_types.h"

namespace avis::hinj {

enum class MessageType : std::uint8_t {
  kModeUpdate = 1,
  kReadRequest = 2,
  kReadResponse = 3,
  kHeartbeat = 4,
};

// Firmware -> engine: the vehicle's operating mode changed.
struct ModeUpdate {
  std::int64_t time_ms = 0;
  std::uint16_t mode_id = 0;
  std::string mode_name;
};

// Firmware -> engine: a sensor driver is about to complete a read().
struct ReadRequest {
  std::int64_t time_ms = 0;
  sensors::SensorId sensor;
};

// Engine -> firmware: the scheduler's decision for that read, and the read
// lease: reads of the same sensor at times before `pass_until` pass without
// asking again. A lease at or below the read's own time grants nothing.
struct ReadResponse {
  bool fail = false;
  std::int64_t pass_until = std::numeric_limits<std::int64_t>::min();
};

// Firmware -> engine: liveness signal; the invariant monitor detects a dead
// firmware process by missing heartbeats.
struct Heartbeat {
  std::int64_t time_ms = 0;
};

using Message = std::variant<ModeUpdate, ReadRequest, ReadResponse, Heartbeat>;

// Largest fixed-size frame (ReadRequest: type + i64 + 2x u8; ReadResponse,
// type + u8 + i64, is one byte shorter); reserving this up front makes even
// the first frame through a fresh writer allocation-free after the single
// warm-up growth.
inline constexpr std::size_t kFixedFrameCapacity = 11;

// --- direct frame encoders (the zero-allocation path) ----------------------

inline void encode_mode_update(ByteWriter& w, std::int64_t time_ms, std::uint16_t mode_id,
                               std::string_view mode_name) {
  w.u8(static_cast<std::uint8_t>(MessageType::kModeUpdate));
  w.i64(time_ms);
  w.u16(mode_id);
  w.str(mode_name);
}

inline void encode_read_request(ByteWriter& w, std::int64_t time_ms,
                                const sensors::SensorId& sensor) {
  w.u8(static_cast<std::uint8_t>(MessageType::kReadRequest));
  w.i64(time_ms);
  w.u8(static_cast<std::uint8_t>(sensor.type));
  w.u8(sensor.instance);
}

inline void encode_read_response(ByteWriter& w, bool fail, std::int64_t pass_until) {
  w.u8(static_cast<std::uint8_t>(MessageType::kReadResponse));
  w.u8(fail ? 1 : 0);
  w.i64(pass_until);
}

inline void encode_heartbeat(ByteWriter& w, std::int64_t time_ms) {
  w.u8(static_cast<std::uint8_t>(MessageType::kHeartbeat));
  w.i64(time_ms);
}

// --- shared field decoders -------------------------------------------------

// A read request's sensor id. The type byte indexes per-type tables on both
// sides of the wire (director activation tables, the client's lease table),
// so a type outside the taxonomy is a malformed frame, not a sensor.
inline sensors::SensorId decode_sensor_id(ByteReader& r) {
  const std::uint8_t type = r.u8();
  if (type >= sensors::kAllSensorTypes.size()) {
    throw WireError("hinj read request names an unknown sensor type");
  }
  return {static_cast<sensors::SensorType>(type), r.u8()};
}

// --- variant wrappers -------------------------------------------------------

inline std::vector<std::uint8_t> encode(const Message& msg) {
  ByteWriter w;
  if (const auto* m = std::get_if<ModeUpdate>(&msg)) {
    encode_mode_update(w, m->time_ms, m->mode_id, m->mode_name);
  } else if (const auto* r = std::get_if<ReadRequest>(&msg)) {
    encode_read_request(w, r->time_ms, r->sensor);
  } else if (const auto* resp = std::get_if<ReadResponse>(&msg)) {
    encode_read_response(w, resp->fail, resp->pass_until);
  } else if (const auto* h = std::get_if<Heartbeat>(&msg)) {
    encode_heartbeat(w, h->time_ms);
  }
  return w.take();
}

inline Message decode(std::span<const std::uint8_t> bytes) {
  ByteReader r(bytes);
  const auto type = static_cast<MessageType>(r.u8());
  switch (type) {
    case MessageType::kModeUpdate: {
      ModeUpdate m;
      m.time_ms = r.i64();
      m.mode_id = r.u16();
      m.mode_name = r.str();
      return m;
    }
    case MessageType::kReadRequest: {
      ReadRequest req;
      req.time_ms = r.i64();
      req.sensor = decode_sensor_id(r);
      return req;
    }
    case MessageType::kReadResponse: {
      ReadResponse resp;
      resp.fail = r.u8() != 0;
      resp.pass_until = r.i64();
      return resp;
    }
    case MessageType::kHeartbeat: {
      Heartbeat h;
      h.time_ms = r.i64();
      return h;
    }
  }
  throw WireError("unknown hinj message type");
}

}  // namespace avis::hinj
