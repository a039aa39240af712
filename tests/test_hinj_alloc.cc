// Pins the hinj transport's zero-allocation guarantee: once the connection
// buffers have warmed up, neither a sensor-read round trip nor a read the
// client answers from its lease table may touch the heap. Every live sensor
// is read on every 1 kHz firmware step, and directors that grant no lease
// (replay, test forwarders) take the wire on each of those reads, so a
// regression here silently re-introduces millions of allocations per
// experiment, which is why it is a test and not a bench.
//
// The counter hooks the global operator new/delete for this binary only;
// gtest's own allocations are excluded by sampling the counter around the
// measured region (the tests are single-threaded).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "core/harness.h"
#include "hinj/hinj.h"
#include "hinj/messages.h"

namespace {
std::atomic<std::size_t> g_allocation_count{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocation_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc{};
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void* operator new(std::size_t size, std::align_val_t align) {
  g_allocation_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::aligned_alloc(static_cast<std::size_t>(align), size)) return p;
  throw std::bad_alloc{};
}

void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }

namespace avis::hinj {
namespace {

// Never fails and grants no lease, so every read is a full round trip.
class NoLeaseDirector final : public FaultDirector {
 public:
  bool should_fail(const sensors::SensorId&, std::int64_t) override { return false; }
  void on_mode_update(std::uint16_t, std::string_view, std::int64_t) override {}
};

TEST(HinjAllocation, SteadyStateReadRoundTripAllocatesNothing) {
  NoLeaseDirector director;
  Server server(director);
  Client client(server);
  const sensors::SensorId id{sensors::SensorType::kGyroscope, 0};

  // Warm-up: the connection buffers grow to the fixed frame size here.
  for (std::int64_t t = 0; t < 16; ++t) client.sensor_read(id, t);

  const std::size_t before = g_allocation_count.load(std::memory_order_relaxed);
  bool failed = false;
  for (std::int64_t t = 16; t < 100016; ++t) failed |= client.sensor_read(id, t);
  const std::size_t after = g_allocation_count.load(std::memory_order_relaxed);

  EXPECT_FALSE(failed);
  EXPECT_EQ(after - before, 0u) << "hinj read round trip must be allocation-free";
}

TEST(HinjAllocation, SteadyStateLeasedReadAllocatesNothing) {
  NullDirector director;  // leases every read for good
  Server server(director);
  Client client(server);
  const sensors::SensorId id{sensors::SensorType::kGyroscope, 0};
  for (std::int64_t t = 0; t < 16; ++t) client.sensor_read(id, t);

  const std::size_t before = g_allocation_count.load(std::memory_order_relaxed);
  bool failed = false;
  for (std::int64_t t = 16; t < 100016; ++t) failed |= client.sensor_read(id, t);
  const std::size_t after = g_allocation_count.load(std::memory_order_relaxed);

  EXPECT_FALSE(failed);
  EXPECT_EQ(after - before, 0u) << "a leased hinj read must be allocation-free";
}

TEST(HinjAllocation, SteadyStateReadWithScheduledDirectorAllocatesNothing) {
  // The production director (per-instance activation table) must keep the
  // decision itself off the heap too: leased reads before the compass's
  // activation, a round trip at it, and a round trip per failing read after
  // (a failing answer grants no lease).
  core::FaultPlan plan;
  plan.add(30000, {sensors::SensorType::kCompass, 1});
  core::ScheduledDirector director(plan);
  Server server(director);
  Client client(server);
  const sensors::SensorId gyro{sensors::SensorType::kGyroscope, 0};
  const sensors::SensorId compass{sensors::SensorType::kCompass, 1};

  for (std::int64_t t = 0; t < 16; ++t) client.sensor_read(gyro, t);

  const std::size_t before = g_allocation_count.load(std::memory_order_relaxed);
  int fails = 0;
  for (std::int64_t t = 29000; t < 31000; ++t) {
    fails += client.sensor_read(gyro, t) ? 1 : 0;
    fails += client.sensor_read(compass, t) ? 1 : 0;
  }
  const std::size_t after = g_allocation_count.load(std::memory_order_relaxed);

  EXPECT_EQ(fails, 1000);  // compass fails from t=30000 on
  EXPECT_EQ(after - before, 0u);
}

TEST(HinjAllocation, SteadyStateHeartbeatAllocatesNothing) {
  NullDirector director;
  Server server(director);
  Client client(server);
  for (std::int64_t t = 0; t < 16; ++t) client.heartbeat(t * 500);

  const std::size_t before = g_allocation_count.load(std::memory_order_relaxed);
  for (std::int64_t t = 16; t < 10016; ++t) client.heartbeat(t * 500);
  const std::size_t after = g_allocation_count.load(std::memory_order_relaxed);

  EXPECT_EQ(after - before, 0u);
}

TEST(HinjAllocation, ModeUpdateWireSideAllocatesNothing) {
  // The general (string-carrying) path: the frame encode and the server's
  // string_view decode must stay off the heap. The *director* may allocate
  // when it stores an owning copy — that is its business, so this test uses
  // one that only inspects the view.
  class ViewingDirector final : public FaultDirector {
   public:
    bool should_fail(const sensors::SensorId&, std::int64_t) override { return false; }
    void on_mode_update(std::uint16_t mode_id, std::string_view name,
                        std::int64_t) override {
      last_mode = mode_id;
      name_chars += name.size();
    }
    std::uint16_t last_mode = 0;
    std::size_t name_chars = 0;
  };

  ViewingDirector director;
  Server server(director);
  Client client(server);
  for (int i = 0; i < 16; ++i) client.update_mode(0x0400, "takeoff", i);

  const std::size_t before = g_allocation_count.load(std::memory_order_relaxed);
  for (int i = 16; i < 10016; ++i) client.update_mode(0x0501, "auto-wp1", i);
  const std::size_t after = g_allocation_count.load(std::memory_order_relaxed);

  EXPECT_EQ(director.last_mode, 0x0501);
  EXPECT_EQ(after - before, 0u);
}

}  // namespace
}  // namespace avis::hinj
