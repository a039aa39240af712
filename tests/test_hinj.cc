#include <gtest/gtest.h>

#include <limits>

#include "core/harness.h"
#include "hinj/hinj.h"
#include "hinj/messages.h"

namespace avis::hinj {
namespace {

TEST(HinjMessages, ModeUpdateRoundTrip) {
  ModeUpdate m;
  m.time_ms = 12345;
  m.mode_id = 0x0501;
  m.mode_name = "auto-wp1";
  const Message decoded = decode(encode(m));
  const auto* out = std::get_if<ModeUpdate>(&decoded);
  ASSERT_NE(out, nullptr);
  EXPECT_EQ(out->time_ms, 12345);
  EXPECT_EQ(out->mode_id, 0x0501);
  EXPECT_EQ(out->mode_name, "auto-wp1");
}

TEST(HinjMessages, ReadRequestRoundTrip) {
  ReadRequest r;
  r.time_ms = 777;
  r.sensor = {sensors::SensorType::kCompass, 2};
  const Message decoded = decode(encode(r));
  const auto* out = std::get_if<ReadRequest>(&decoded);
  ASSERT_NE(out, nullptr);
  EXPECT_EQ(out->time_ms, 777);
  EXPECT_EQ(out->sensor, (sensors::SensorId{sensors::SensorType::kCompass, 2}));
}

TEST(HinjMessages, ReadResponseRoundTrip) {
  for (bool fail : {true, false}) {
    ReadResponse r;
    r.fail = fail;
    r.pass_until = fail ? 43 : std::numeric_limits<std::int64_t>::max();
    const Message decoded = decode(encode(r));
    const auto* out = std::get_if<ReadResponse>(&decoded);
    ASSERT_NE(out, nullptr);
    EXPECT_EQ(out->fail, fail);
    EXPECT_EQ(out->pass_until, r.pass_until);
  }
}

TEST(HinjMessages, HeartbeatRoundTrip) {
  Heartbeat h;
  h.time_ms = 999;
  const Message decoded = decode(encode(h));
  const auto* out = std::get_if<Heartbeat>(&decoded);
  ASSERT_NE(out, nullptr);
  EXPECT_EQ(out->time_ms, 999);
}

TEST(HinjMessages, TruncatedFrameThrows) {
  auto bytes = encode(ReadRequest{100, {sensors::SensorType::kGps, 0}});
  bytes.resize(bytes.size() - 2);
  EXPECT_THROW(decode(bytes), WireError);
}

TEST(HinjMessages, UnknownTypeThrows) {
  std::vector<std::uint8_t> bytes{0xEE};
  EXPECT_THROW(decode(bytes), WireError);
}

// A read request whose sensor-type byte is outside the taxonomy is malformed:
// both decoders reject it before any director (whose activation table is
// indexed by type) or lease table sees it.
TEST(HinjMessages, UnknownSensorTypeThrows) {
  core::FaultPlan plan;
  plan.add(100, {sensors::SensorType::kGps, 0});
  core::ScheduledDirector director(plan);
  Server server(director);
  for (std::uint8_t type : {std::uint8_t{6}, std::uint8_t{200}}) {
    SCOPED_TRACE(static_cast<int>(type));
    std::vector<std::uint8_t> frame{2, 50, 0, 0, 0, 0, 0, 0, 0, type, 0};
    EXPECT_THROW(decode(frame), WireError);
    EXPECT_THROW(server.handle(frame), WireError);
    ByteWriter response;
    EXPECT_THROW(server.handle_frame(frame, response), WireError);
  }
  // The last valid type still decodes.
  std::vector<std::uint8_t> battery{2, 50, 0, 0, 0, 0, 0, 0, 0, 5, 0};
  EXPECT_FALSE(server.handle(battery).empty());
}

// The fixed-size fast-path encoders must emit frames byte-identical to the
// general encode(Message) path — the wire format is the isolation boundary,
// so the fast path may not change a single byte of it.
TEST(HinjMessages, FastPathFramesMatchGeneralEncode) {
  ByteWriter w;

  encode_read_request(w, 777, {sensors::SensorType::kCompass, 2});
  EXPECT_EQ(w.bytes(), encode(ReadRequest{777, {sensors::SensorType::kCompass, 2}}));

  for (bool fail : {true, false}) {
    w.clear();
    encode_read_response(w, fail, 30000);
    EXPECT_EQ(w.bytes(), encode(ReadResponse{fail, 30000}));
  }

  w.clear();
  encode_heartbeat(w, 999);
  EXPECT_EQ(w.bytes(), encode(Heartbeat{999}));

  w.clear();
  encode_mode_update(w, 12345, 0x0501, "auto-wp1");
  EXPECT_EQ(w.bytes(), encode(ModeUpdate{12345, 0x0501, "auto-wp1"}));
}

// Server::handle_frame (the in-place dispatch the client's fast path uses)
// must produce exactly the response bytes of the general handle() path.
TEST(HinjMessages, HandleFrameResponsesMatchGeneralHandle) {
  NullDirector director;
  Server server(director);

  const auto request = encode(ReadRequest{42, {sensors::SensorType::kGps, 0}});
  ByteWriter response;
  server.handle_frame(request, response);
  EXPECT_EQ(response.bytes(), server.handle(request));

  // Messages without a response leave the (cleared) buffer empty, exactly
  // as handle() returns an empty frame.
  server.handle_frame(encode(Heartbeat{500}), response);
  EXPECT_TRUE(response.empty());
  EXPECT_TRUE(server.handle(encode(Heartbeat{500})).empty());
}

TEST(HinjMessages, ByteWriterClearRetainsCapacity) {
  ByteWriter w;
  encode_read_request(w, 1, {sensors::SensorType::kGyroscope, 0});
  const auto first = w.bytes();
  w.clear();
  EXPECT_TRUE(w.empty());
  encode_read_request(w, 1, {sensors::SensorType::kGyroscope, 0});
  EXPECT_EQ(w.bytes(), first);
}

TEST(HinjMessages, ByteReaderStrViewPointsIntoFrame) {
  ByteWriter w;
  encode_mode_update(w, 7, 0x0400, "takeoff");
  ByteReader r(w.span());
  EXPECT_EQ(static_cast<MessageType>(r.u8()), MessageType::kModeUpdate);
  EXPECT_EQ(r.i64(), 7);
  EXPECT_EQ(r.u16(), 0x0400);
  const std::string_view name = r.str_view();
  EXPECT_EQ(name, "takeoff");
  // Zero-copy: the view aliases the writer's buffer, no owned string.
  EXPECT_GE(reinterpret_cast<const std::uint8_t*>(name.data()), w.span().data());
  EXPECT_LT(reinterpret_cast<const std::uint8_t*>(name.data()),
            w.span().data() + w.size());
  EXPECT_TRUE(r.exhausted());
}

class CountingDirector final : public FaultDirector {
 public:
  bool should_fail(const sensors::SensorId& sensor, std::int64_t time_ms) override {
    ++reads;
    last_sensor = sensor;
    last_time = time_ms;
    return fail_next;
  }
  std::int64_t pass_until(const sensors::SensorId& sensor, std::int64_t time_ms) override {
    return lease != 0 ? lease : FaultDirector::pass_until(sensor, time_ms);
  }
  void on_mode_update(std::uint16_t mode_id, std::string_view name,
                      std::int64_t time_ms) override {
    modes.emplace_back(mode_id, std::string(name), time_ms);
  }
  void on_heartbeat(std::int64_t time_ms) override { last_heartbeat = time_ms; }

  int reads = 0;
  bool fail_next = false;
  // 0 = the default (no lease); otherwise pass_until's answer.
  std::int64_t lease = 0;
  sensors::SensorId last_sensor;
  std::int64_t last_time = 0;
  std::int64_t last_heartbeat = 0;
  std::vector<std::tuple<std::uint16_t, std::string, std::int64_t>> modes;
};

TEST(HinjClientServer, SensorReadRoundTrip) {
  CountingDirector director;
  Server server(director);
  Client client(server);
  EXPECT_FALSE(client.sensor_read({sensors::SensorType::kBarometer, 0}, 42));
  EXPECT_EQ(director.reads, 1);
  EXPECT_EQ(director.last_sensor, (sensors::SensorId{sensors::SensorType::kBarometer, 0}));
  EXPECT_EQ(director.last_time, 42);

  director.fail_next = true;
  EXPECT_TRUE(client.sensor_read({sensors::SensorType::kGps, 0}, 43));
}

TEST(HinjClientServer, ModeUpdatesReachDirector) {
  CountingDirector director;
  Server server(director);
  Client client(server);
  client.update_mode(0x0400, "takeoff", 3540);
  client.update_mode(0x0501, "auto-wp1", 13000);
  ASSERT_EQ(director.modes.size(), 2u);
  EXPECT_EQ(std::get<0>(director.modes[0]), 0x0400);
  EXPECT_EQ(std::get<1>(director.modes[1]), "auto-wp1");
  EXPECT_EQ(std::get<2>(director.modes[1]), 13000);
}

TEST(HinjClientServer, HeartbeatReachesDirector) {
  CountingDirector director;
  Server server(director);
  Client client(server);
  client.heartbeat(500);
  EXPECT_EQ(director.last_heartbeat, 500);
}

TEST(HinjClientServer, NullDirectorNeverFails) {
  NullDirector director;
  Server server(director);
  Client client(server);
  for (int t = 0; t < 100; ++t) {
    EXPECT_FALSE(client.sensor_read({sensors::SensorType::kGyroscope, 0}, t));
  }
}

TEST(HinjClientServer, LeasedReadsSkipTheDirectorUntilTheLeaseEnds) {
  CountingDirector director;
  director.lease = 100;
  Server server(director);
  Client client(server);
  const sensors::SensorId gps{sensors::SensorType::kGps, 0};
  const sensors::SensorId compass{sensors::SensorType::kCompass, 1};

  EXPECT_FALSE(client.sensor_read(gps, 10));
  for (std::int64_t t = 11; t < 100; ++t) EXPECT_FALSE(client.sensor_read(gps, t));
  EXPECT_EQ(director.reads, 1);

  // Leases are per instance: another sensor still asks.
  EXPECT_FALSE(client.sensor_read(compass, 50));
  EXPECT_EQ(director.reads, 2);

  // At the lease's end the client asks again and gets the real answer.
  director.fail_next = true;
  EXPECT_TRUE(client.sensor_read(gps, 100));
  EXPECT_EQ(director.reads, 3);
}

TEST(HinjClientServer, NoLeaseDirectorAsksOnEveryRead) {
  CountingDirector director;
  Server server(director);
  Client client(server);
  for (int t = 0; t < 50; ++t) client.sensor_read({sensors::SensorType::kGyroscope, 0}, t);
  EXPECT_EQ(director.reads, 50);
}

TEST(HinjClientServer, ScheduledDirectorLeasesUpToTheActivation) {
  core::FaultPlan plan;
  plan.add(30, {sensors::SensorType::kGps, 0});
  core::ScheduledDirector scheduled(plan);
  Server server(scheduled);
  Client client(server);
  const sensors::SensorId gps{sensors::SensorType::kGps, 0};
  for (std::int64_t t = 0; t < 30; ++t) EXPECT_FALSE(client.sensor_read(gps, t));
  EXPECT_TRUE(client.sensor_read(gps, 30));
  EXPECT_EQ(scheduled.pass_until(gps, 0), 30);
  EXPECT_EQ(scheduled.pass_until({sensors::SensorType::kBarometer, 0}, 0),
            core::FaultPlan::kNever);
}

TEST(HinjClientServer, DirectorSwappableMidRun) {
  NullDirector null;  // leases every read for good
  CountingDirector counting;
  Server server(null);
  Client client(server);
  const sensors::SensorId gps{sensors::SensorType::kGps, 0};
  EXPECT_FALSE(client.sensor_read(gps, 1));
  server.set_director(counting);
  counting.fail_next = true;
  EXPECT_TRUE(client.sensor_read(gps, 2));
  EXPECT_EQ(counting.reads, 1);

  // A director with a finite lease, swapped out before the lease ends for
  // one that fails the sensor: the swap revokes the lease.
  CountingDirector leasing;
  leasing.lease = 1000;
  server.set_director(leasing);
  EXPECT_FALSE(client.sensor_read(gps, 3));
  EXPECT_FALSE(client.sensor_read(gps, 4));
  EXPECT_EQ(leasing.reads, 1);
  server.set_director(counting);
  EXPECT_TRUE(client.sensor_read(gps, 5));
  EXPECT_EQ(counting.reads, 2);
}

}  // namespace
}  // namespace avis::hinj
