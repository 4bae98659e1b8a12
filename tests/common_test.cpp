// Unit tests for the common kernel: strong ids, Result/Status, Rng,
// serialization round-trips.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <limits>
#include <set>
#include <span>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/buffer_pool.hpp"
#include "common/ids.hpp"
#include "common/result.hpp"
#include "common/rng.hpp"
#include "common/serialization.hpp"
#include "common/time.hpp"

namespace ddbg {
namespace {

TEST(StrongId, DefaultIsInvalid) {
  ProcessId id;
  EXPECT_FALSE(id.valid());
  EXPECT_EQ(to_string(id), "p<invalid>");
}

TEST(StrongId, ValueRoundTrip) {
  ProcessId id(7);
  EXPECT_TRUE(id.valid());
  EXPECT_EQ(id.value(), 7u);
  EXPECT_EQ(to_string(id), "p7");
}

TEST(StrongId, Comparisons) {
  EXPECT_EQ(ProcessId(3), ProcessId(3));
  EXPECT_NE(ProcessId(3), ProcessId(4));
  EXPECT_LT(ProcessId(3), ProcessId(4));
}

TEST(StrongId, DistinctTypesAreDistinct) {
  // Compile-time property: ProcessId and ChannelId don't cross-convert.
  static_assert(!std::is_convertible_v<ProcessId, ChannelId>);
  static_assert(!std::is_convertible_v<ChannelId, ProcessId>);
}

TEST(StrongId, Hashable) {
  std::unordered_set<ProcessId> set;
  set.insert(ProcessId(1));
  set.insert(ProcessId(2));
  set.insert(ProcessId(1));
  EXPECT_EQ(set.size(), 2u);
}

TEST(Result, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_EQ(r.value_or(7), 42);
}

TEST(Result, HoldsError) {
  Result<int> r(Error(ErrorCode::kNotFound, "missing"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code(), ErrorCode::kNotFound);
  EXPECT_EQ(r.error().message(), "missing");
  EXPECT_EQ(r.value_or(7), 7);
  EXPECT_EQ(r.error().to_string(), "not_found: missing");
}

TEST(Status, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
}

TEST(Status, CarriesError) {
  Status s{Error(ErrorCode::kTimeout, "too slow")};
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.error().code(), ErrorCode::kTimeout);
}

TEST(Rng, Deterministic) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_LT(same, 5);
}

TEST(Rng, NextBelowInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.next_below(17), 17u);
  }
}

TEST(Rng, NextBelowCoversRange) {
  Rng rng(9);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.next_below(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, NextInInclusive) {
  Rng rng(11);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const std::int64_t v = rng.next_in(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);
}

TEST(Rng, NextInDegenerateRange) {
  // low == high is a valid (single-point) range, not a modulo-by-zero.
  Rng rng(19);
  EXPECT_EQ(rng.next_in(5, 5), 5);
  EXPECT_EQ(rng.next_in(-3, -3), -3);
  EXPECT_EQ(rng.next_in(std::numeric_limits<std::int64_t>::max(),
                        std::numeric_limits<std::int64_t>::max()),
            std::numeric_limits<std::int64_t>::max());
  EXPECT_EQ(rng.next_in(std::numeric_limits<std::int64_t>::min(),
                        std::numeric_limits<std::int64_t>::min()),
            std::numeric_limits<std::int64_t>::min());
}

TEST(Rng, NextInExtremeRanges) {
  Rng rng(23);
  // The full-int64 span overflows a uint64 width by one; the implementation
  // must fall back to a raw draw rather than computing span = 0.
  std::set<std::int64_t> full_range;
  for (int i = 0; i < 100; ++i) {
    full_range.insert(rng.next_in(std::numeric_limits<std::int64_t>::min(),
                                  std::numeric_limits<std::int64_t>::max()));
  }
  EXPECT_GT(full_range.size(), 90u);  // essentially all distinct draws
  // A range that crosses zero and nearly spans the type stays in bounds.
  for (int i = 0; i < 1000; ++i) {
    const std::int64_t v =
        rng.next_in(std::numeric_limits<std::int64_t>::min() + 2,
                    std::numeric_limits<std::int64_t>::max() - 2);
    EXPECT_GE(v, std::numeric_limits<std::int64_t>::min() + 2);
    EXPECT_LE(v, std::numeric_limits<std::int64_t>::max() - 2);
  }
  // Both endpoints of a tiny range are reachable (inclusive bounds).
  std::set<std::int64_t> seen;
  for (int i = 0; i < 200; ++i) {
    seen.insert(rng.next_in(std::numeric_limits<std::int64_t>::max() - 1,
                            std::numeric_limits<std::int64_t>::max()));
  }
  EXPECT_EQ(seen.size(), 2u);
}

TEST(Rng, DoubleInUnitInterval) {
  Rng rng(13);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.next_double();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Rng, ExponentialMeanRoughlyCorrect) {
  Rng rng(17);
  double total = 0;
  constexpr int kSamples = 20000;
  for (int i = 0; i < kSamples; ++i) total += rng.next_exponential(5.0);
  const double mean = total / kSamples;
  EXPECT_NEAR(mean, 5.0, 0.3);
}

TEST(Rng, ForkIndependent) {
  Rng parent(21);
  Rng child = parent.fork();
  EXPECT_NE(parent.next_u64(), child.next_u64());
}

TEST(Serialization, FixedWidthRoundTrip) {
  ByteWriter writer;
  writer.u8(0xab);
  writer.u16(0x1234);
  writer.u32(0xdeadbeef);
  writer.u64(0x0123456789abcdefULL);
  writer.i64(-42);
  writer.f64(3.5);

  ByteReader reader(writer.buffer());
  EXPECT_EQ(reader.u8().value(), 0xab);
  EXPECT_EQ(reader.u16().value(), 0x1234);
  EXPECT_EQ(reader.u32().value(), 0xdeadbeefu);
  EXPECT_EQ(reader.u64().value(), 0x0123456789abcdefULL);
  EXPECT_EQ(reader.i64().value(), -42);
  EXPECT_EQ(reader.f64().value(), 3.5);
  EXPECT_TRUE(reader.exhausted());
}

TEST(Serialization, VarintRoundTrip) {
  const std::uint64_t values[] = {0,    1,    127,        128,
                                  300,  1u << 20, 1ull << 40, ~0ull};
  ByteWriter writer;
  for (const auto v : values) writer.varint(v);
  ByteReader reader(writer.buffer());
  for (const auto v : values) {
    EXPECT_EQ(reader.varint().value(), v);
  }
  EXPECT_TRUE(reader.exhausted());
}

TEST(Serialization, VarintCompact) {
  ByteWriter writer;
  writer.varint(5);
  EXPECT_EQ(writer.size(), 1u);
}

TEST(Serialization, StringRoundTrip) {
  ByteWriter writer;
  writer.str("hello");
  writer.str("");
  writer.str("with \0 byte");
  ByteReader reader(writer.buffer());
  EXPECT_EQ(reader.str().value(), "hello");
  EXPECT_EQ(reader.str().value(), "");
  EXPECT_EQ(reader.str().value(), "with ");  // string_view stops at NUL here
}

TEST(Serialization, BytesRoundTrip) {
  const Bytes data{1, 2, 3, 255, 0, 7};
  ByteWriter writer;
  writer.bytes(data);
  ByteReader reader(writer.buffer());
  EXPECT_EQ(reader.bytes().value(), data);
}

TEST(Serialization, UnderflowIsError) {
  const Bytes data{0x01};
  ByteReader reader(data);
  auto r = reader.u32();
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code(), ErrorCode::kParseError);
}

TEST(Serialization, TruncatedStringIsError) {
  ByteWriter writer;
  writer.varint(100);  // claims 100 bytes follow
  ByteReader reader(writer.buffer());
  EXPECT_FALSE(reader.str().ok());
}

TEST(Serialization, MalformedVarintIsError) {
  Bytes data(11, 0xff);  // continuation bit forever
  ByteReader reader(data);
  EXPECT_FALSE(reader.varint().ok());
}

// ---------------------------------------------------------------------------
// Codec contract: ByteWriter's one-growth-per-field primitives produce the
// exact bytes of a byte-at-a-time encoder, and ByteReader's bulk varint read
// accepts and rejects exactly what repeated varint() calls do.
// ---------------------------------------------------------------------------

// The byte-at-a-time encoder the bulk writer must match.
struct ReferenceWriter {
  Bytes out;

  void fixed(std::uint64_t v, std::size_t width) {
    for (std::size_t i = 0; i < width; ++i) {
      out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  }
  void varint(std::uint64_t v) {
    while (v >= 0x80) {
      out.push_back(static_cast<std::uint8_t>(v) | 0x80);
      v >>= 7;
    }
    out.push_back(static_cast<std::uint8_t>(v));
  }
  void blob(std::span<const std::uint8_t> data) {
    varint(data.size());
    for (const std::uint8_t b : data) out.push_back(b);
  }
};

std::vector<std::uint64_t> boundary_values() {
  std::vector<std::uint64_t> values = {0, 1, 127, 128, 255, 256, 300,
                                       1ull << 63, (1ull << 63) - 1, ~0ull};
  // Both sides of every LEB128 length step, and of every byte width.
  for (int bits = 7; bits < 64; bits += 7) {
    values.push_back((1ull << bits) - 1);
    values.push_back(1ull << bits);
  }
  for (int bits = 8; bits < 64; bits += 8) {
    values.push_back((1ull << bits) - 1);
    values.push_back(1ull << bits);
  }
  return values;
}

// A random value whose magnitude is spread over every varint length.
std::uint64_t random_value(Rng& rng) {
  const auto shift = static_cast<int>(rng.next_below(64));
  return rng.next_u64() >> shift;
}

// Drives one random field through both encoders.
void write_random_field(Rng& rng, ByteWriter& writer, ReferenceWriter& ref,
                        std::uint64_t v) {
  switch (rng.next_below(10)) {
    case 0:
      writer.u8(static_cast<std::uint8_t>(v));
      ref.fixed(v, 1);
      break;
    case 1:
      writer.u16(static_cast<std::uint16_t>(v));
      ref.fixed(v, 2);
      break;
    case 2:
      writer.u32(static_cast<std::uint32_t>(v));
      ref.fixed(v, 4);
      break;
    case 3:
      writer.u64(v);
      ref.fixed(v, 8);
      break;
    case 4:
      writer.i64(static_cast<std::int64_t>(v));
      ref.fixed(v, 8);
      break;
    case 5: {
      double d;
      std::memcpy(&d, &v, sizeof(d));
      writer.f64(d);
      ref.fixed(v, 8);
      break;
    }
    case 6:
      writer.varint(v);
      ref.varint(v);
      break;
    case 7: {
      const std::string text(rng.next_below(200), static_cast<char>(v));
      writer.str(text);
      ref.blob(std::span<const std::uint8_t>(
          reinterpret_cast<const std::uint8_t*>(text.data()), text.size()));
      break;
    }
    case 8: {
      const Bytes data(rng.next_below(200), static_cast<std::uint8_t>(v));
      writer.bytes(data);
      ref.blob(data);
      break;
    }
    default: {
      std::vector<std::uint64_t> run(rng.next_below(70));
      for (std::uint64_t& x : run) x = random_value(rng);
      writer.varints(run);
      for (const std::uint64_t x : run) ref.varint(x);
      break;
    }
  }
}

TEST(Serialization, GoldenBytes) {
  ByteWriter writer;
  writer.u8(0xab);
  writer.u16(0x1234);
  writer.u32(0xdeadbeef);
  writer.u64(0x0123456789abcdefULL);
  writer.i64(-2);
  writer.varint(0);
  writer.varint(127);
  writer.varint(128);
  writer.varint(300);
  const Bytes expected = {
      0xab, 0x34, 0x12, 0xef, 0xbe, 0xad, 0xde, 0xef, 0xcd, 0xab, 0x89,
      0x67, 0x45, 0x23, 0x01, 0xfe, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff,
      0xff, 0x00, 0x7f, 0x80, 0x01, 0xac, 0x02};
  EXPECT_EQ(writer.buffer(), expected);

  ByteWriter top;
  top.varint(1ull << 63);
  top.varint(~0ull);
  Bytes expected_top(20, 0x80);
  expected_top[9] = 0x01;
  std::fill(expected_top.begin() + 10, expected_top.end() - 1, 0xff);
  expected_top[19] = 0x01;
  EXPECT_EQ(top.buffer(), expected_top);
}

TEST(Serialization, BoundaryValuesMatchByteAtATimeEncoder) {
  const std::vector<std::uint64_t> values = boundary_values();
  for (const std::uint64_t v : values) {
    ByteWriter writer;
    ReferenceWriter ref;
    writer.varint(v);
    ref.varint(v);
    writer.u16(static_cast<std::uint16_t>(v));
    ref.fixed(v, 2);
    writer.u32(static_cast<std::uint32_t>(v));
    ref.fixed(v, 4);
    writer.u64(v);
    ref.fixed(v, 8);
    EXPECT_EQ(writer.buffer(), ref.out) << v;
    ByteReader reader(writer.buffer());
    EXPECT_EQ(reader.varint().value(), v);
  }
  ByteWriter bulk;
  ReferenceWriter ref;
  bulk.varints(values);
  for (const std::uint64_t v : values) ref.varint(v);
  EXPECT_EQ(bulk.buffer(), ref.out);
  std::vector<std::uint64_t> decoded(values.size());
  ByteReader reader(bulk.buffer());
  ASSERT_TRUE(reader.varints(decoded).ok());
  EXPECT_TRUE(reader.exhausted());
  EXPECT_EQ(decoded, values);
}

TEST(Serialization, RandomFieldsMatchByteAtATimeEncoder) {
  Rng rng(2024);
  for (int trial = 0; trial < 200; ++trial) {
    // Owning mode, and external mode appending after existing bytes (a
    // pooled frame's length-prefix placeholder, say).
    ByteWriter owned;
    ReferenceWriter owned_ref;
    Bytes external(rng.next_below(9), 0x5a);
    external.reserve(external.size() + rng.next_below(64));
    ReferenceWriter external_ref;
    external_ref.out = external;
    ByteWriter appending(external);
    const auto fields = 1 + rng.next_below(30);
    for (std::uint64_t f = 0; f < fields; ++f) {
      const std::uint64_t v = random_value(rng);
      Rng fork = rng;
      write_random_field(rng, owned, owned_ref, v);
      write_random_field(fork, appending, external_ref, v);
    }
    ASSERT_EQ(owned.buffer(), owned_ref.out) << "trial " << trial;
    ASSERT_EQ(external, external_ref.out) << "trial " << trial;
    EXPECT_EQ(appending.size(), external.size());
  }
}

TEST(Serialization, EmptyVarintRunWritesNothing) {
  Bytes external = {1, 2, 3};
  ByteWriter writer(external);
  writer.varints({});
  EXPECT_EQ(external, (Bytes{1, 2, 3}));
  ByteReader reader(external);
  EXPECT_TRUE(reader.varints({}).ok());
  EXPECT_EQ(reader.remaining(), 3u);
}

// Reads `n` varints one call at a time: the behaviour the bulk read keeps.
Status reference_varints(ByteReader& reader, std::vector<std::uint64_t>& out,
                         std::size_t n) {
  out.clear();
  for (std::size_t i = 0; i < n; ++i) {
    auto v = reader.varint();
    if (!v.ok()) return v.error();
    out.push_back(v.value());
  }
  return Status::ok_status();
}

// Asserts the bulk and one-at-a-time reads agree on `data`: same verdict,
// same error text, same values and same stopping point on success.
void expect_bulk_read_matches(const Bytes& data, std::size_t n) {
  ByteReader bulk(data);
  std::vector<std::uint64_t> got(n);
  const Status bulk_status = bulk.varints(got);
  ByteReader one(data);
  std::vector<std::uint64_t> want;
  const Status one_status = reference_varints(one, want, n);
  ASSERT_EQ(bulk_status.ok(), one_status.ok());
  if (one_status.ok()) {
    EXPECT_EQ(got, want);
    EXPECT_EQ(bulk.remaining(), one.remaining());
  } else {
    EXPECT_EQ(bulk_status.error().code(), one_status.error().code());
    EXPECT_EQ(bulk_status.error().message(), one_status.error().message());
  }
}

TEST(Serialization, BulkVarintReadRejectsWhatVarintRejects) {
  // Truncation at every byte of a run, for the error text.
  ByteWriter writer;
  writer.varints(boundary_values());
  const Bytes& full = writer.buffer();
  for (std::size_t cut = 0; cut < full.size(); ++cut) {
    const Bytes prefix(full.begin(),
                       full.begin() + static_cast<std::ptrdiff_t>(cut));
    expect_bulk_read_matches(prefix, boundary_values().size());
  }

  // Overlong and non-canonical inputs, alone and after a valid value.
  const auto overlong = [](std::size_t lead) {
    Bytes spare_bits(lead, 0x05);  // tenth byte with a bit past bit 63
    for (int i = 0; i < 9; ++i) spare_bits.push_back(0x80);
    spare_bits.push_back(0x02);
    Bytes eleven(lead, 0x05);  // eleventh byte: too long
    for (int i = 0; i < 10; ++i) eleven.push_back(0x80);
    eleven.push_back(0x00);
    Bytes ten_open(lead, 0x05);  // canonical tenth byte, continues, EOF
    for (int i = 0; i < 9; ++i) ten_open.push_back(0xff);
    ten_open.push_back(0x81);
    return std::vector<Bytes>{spare_bits, eleven, ten_open};
  };
  for (const std::size_t lead : {0u, 1u}) {
    for (const Bytes& bad : overlong(lead)) {
      expect_bulk_read_matches(bad, lead + 1);
    }
  }
  const std::vector<Bytes> bad = overlong(0);
  const Bytes& spare_bits = bad[0];
  const Bytes& eleven = bad[1];
  const Bytes& ten_open = bad[2];
  ByteReader overflow(spare_bits);
  std::uint64_t v = 0;
  const Status status = overflow.varints({&v, 1});
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.error().message(), "varint overflows 64 bits");
  ByteReader too_long(eleven);
  EXPECT_EQ(too_long.varints({&v, 1}).error().message(), "varint too long");
  ByteReader open(ten_open);
  EXPECT_EQ(open.varints({&v, 1}).error().message(),
            "buffer underflow reading varint");

  // Random byte soup.
  Rng rng(77);
  for (int trial = 0; trial < 2000; ++trial) {
    Bytes data(rng.next_below(40));
    for (std::uint8_t& b : data) {
      // Bias towards continuation bytes so long varints show up.
      const std::uint64_t high = rng.next_below(4) != 0 ? 0x80 : 0;
      b = static_cast<std::uint8_t>(rng.next_u64() | high);
    }
    expect_bulk_read_matches(data, 1 + rng.next_below(6));
  }
}

TEST(BufferPool, FirstAcquireIsAMiss) {
  BufferPool pool;
  auto lease = pool.acquire();
  EXPECT_FALSE(lease.reused());
  EXPECT_EQ(pool.hits(), 0u);
  EXPECT_EQ(pool.misses(), 1u);
}

TEST(BufferPool, ReleasedBufferIsReusedWithCapacityRetained) {
  BufferPool pool;
  const std::uint8_t* data = nullptr;
  {
    auto lease = pool.acquire();
    lease.bytes().assign(100, 0xab);
    data = lease.bytes().data();
  }
  EXPECT_EQ(pool.idle(), 1u);
  auto lease = pool.acquire();
  EXPECT_TRUE(lease.reused());
  EXPECT_TRUE(lease.bytes().empty());        // contents cleared...
  EXPECT_GE(lease.bytes().capacity(), 100u);  // ...capacity kept
  EXPECT_EQ(lease.bytes().data(), data);      // same allocation, no alloc
  EXPECT_EQ(pool.hits(), 1u);
}

TEST(BufferPool, TakeDetachesFromPool) {
  BufferPool pool;
  {
    auto lease = pool.acquire();
    lease.bytes().assign(8, 0x01);
    Bytes taken = std::move(lease).take();
    EXPECT_EQ(taken.size(), 8u);
  }
  EXPECT_EQ(pool.idle(), 0u);  // taken buffer never came back
}

TEST(BufferPool, MoveTransfersOwnershipOnce) {
  BufferPool pool;
  {
    auto a = pool.acquire();
    BufferPool::Lease b = std::move(a);
    (void)b;
  }
  // Exactly one recycle despite the moved-from lease also destructing.
  EXPECT_EQ(pool.idle(), 1u);
}

TEST(BufferPool, FreeListDepthIsCapped) {
  BufferPool pool(BufferPool::Config{.max_buffers = 2,
                                     .max_retained_capacity = 1u << 20});
  {
    auto a = pool.acquire();
    auto b = pool.acquire();
    auto c = pool.acquire();
  }
  EXPECT_EQ(pool.idle(), 2u);
}

TEST(BufferPool, OversizedBuffersAreNotRetained) {
  BufferPool pool(
      BufferPool::Config{.max_buffers = 32, .max_retained_capacity = 64});
  {
    auto lease = pool.acquire();
    lease.bytes().assign(1024, 0x00);  // grows capacity past the cap
  }
  EXPECT_EQ(pool.idle(), 0u);
}

TEST(BufferPool, SteadyStateHitRateIsHigh) {
  BufferPool pool;
  for (int i = 0; i < 1000; ++i) {
    auto lease = pool.acquire();
    lease.bytes().assign(64, 0x2a);
  }
  EXPECT_EQ(pool.misses(), 1u);
  EXPECT_EQ(pool.hits(), 999u);
}

TEST(Time, DurationArithmetic) {
  EXPECT_EQ(Duration::millis(2) + Duration::micros(500),
            Duration::micros(2500));
  EXPECT_EQ(Duration::seconds(1) - Duration::millis(1),
            Duration::micros(999000));
  EXPECT_EQ(Duration::millis(3) * 4, Duration::millis(12));
  EXPECT_LT(Duration::millis(1), Duration::millis(2));
}

TEST(Time, TimePointArithmetic) {
  TimePoint t{1000};
  EXPECT_EQ((t + Duration::nanos(500)).ns, 1500);
  EXPECT_EQ((TimePoint{1500} - t).ns, 500);
}

}  // namespace
}  // namespace ddbg
