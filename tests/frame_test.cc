// Tests for the binary wire codec (DESIGN.md §12): request/response
// round-trips, stream reassembly, truncation, oversized lengths, seeded
// garbage fuzzing (bounded — these are unit tests, not a fuzz farm), and the
// CompletionWindow both the async client and Pipeline are built on.

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "src/block/block_id.h"
#include "src/common/random.h"
#include "src/net/completion.h"
#include "src/net/frame.h"

namespace jiffy {
namespace {

// Extracts the single frame body out of an encoded frame buffer.
std::string_view BodyOf(const std::string& frame) {
  size_t offset = 0;
  std::string_view body;
  EXPECT_TRUE(NextFrame(frame, &offset, &body).ok());
  EXPECT_EQ(offset, frame.size());
  return body;
}

// Flattens a WireResponse (head + scattered payloads) the way the socket
// writer would, then strips the length prefix.
std::string FlattenResponse(const WireResponse& resp) {
  std::string wire = resp.head;
  for (std::string_view p : resp.payloads) {
    wire.append(p);
  }
  size_t offset = 0;
  std::string_view body;
  EXPECT_TRUE(NextFrame(wire, &offset, &body).ok());
  EXPECT_EQ(offset, wire.size());
  return std::string(body);
}

// --- Request round-trips -----------------------------------------------------

TEST(FrameCodec, PingRoundTrip) {
  std::string frame;
  EncodePingRequest(77, &frame);
  DecodedRequest req;
  ASSERT_TRUE(DecodeRequest(BodyOf(frame), &req).ok());
  EXPECT_EQ(req.op, WireOp::kPing);
  EXPECT_EQ(req.tag, 77u);
  EXPECT_TRUE(req.keys.empty());
}

TEST(FrameCodec, MultiPutRoundTripWithBinaryBytes) {
  const std::string key1("k\0ey", 4);  // Embedded NUL must survive.
  const std::string val1("v\xff\x00z", 4);
  std::vector<std::pair<std::string_view, std::string_view>> pairs = {
      {key1, val1}, {"", "empty-key-value"}, {"empty-value", ""}};
  std::string frame;
  EncodeMultiPutRequest(0xdeadbeefcafe, 0x123456789abcdef0ull, pairs, &frame);

  DecodedRequest req;
  ASSERT_TRUE(DecodeRequest(BodyOf(frame), &req).ok());
  EXPECT_EQ(req.op, WireOp::kMultiPut);
  EXPECT_EQ(req.tag, 0xdeadbeefcafeull);
  EXPECT_EQ(req.block, 0x123456789abcdef0ull);
  ASSERT_EQ(req.keys.size(), 3u);
  ASSERT_EQ(req.values.size(), 3u);
  EXPECT_EQ(req.keys[0], std::string_view(key1));
  EXPECT_EQ(req.values[0], std::string_view(val1));
  EXPECT_EQ(req.keys[1], "");
  EXPECT_EQ(req.values[1], "empty-key-value");
  EXPECT_EQ(req.keys[2], "empty-value");
  EXPECT_EQ(req.values[2], "");
}

TEST(FrameCodec, KeysRequestRoundTrip) {
  for (WireOp op : {WireOp::kMultiGet, WireOp::kMultiDelete}) {
    std::vector<std::string_view> keys = {"alpha", "", "gamma"};
    std::string frame;
    EncodeKeysRequest(op, 9, 42, keys, &frame);
    DecodedRequest req;
    ASSERT_TRUE(DecodeRequest(BodyOf(frame), &req).ok());
    EXPECT_EQ(req.op, op);
    EXPECT_EQ(req.tag, 9u);
    EXPECT_EQ(req.block, 42u);
    ASSERT_EQ(req.keys.size(), 3u);
    EXPECT_EQ(req.keys[0], "alpha");
    EXPECT_EQ(req.keys[1], "");
    EXPECT_EQ(req.keys[2], "gamma");
    EXPECT_TRUE(req.values.empty());
  }
}

TEST(FrameCodec, SeveralFramesPackIntoOneBuffer) {
  std::string buf;
  EncodePingRequest(1, &buf);
  EncodeKeysRequest(WireOp::kMultiGet, 2, 7, {"k"}, &buf);
  EncodePingRequest(3, &buf);

  size_t offset = 0;
  std::string_view body;
  std::vector<uint64_t> tags;
  while (NextFrame(buf, &offset, &body).ok()) {
    DecodedRequest req;
    ASSERT_TRUE(DecodeRequest(body, &req).ok());
    tags.push_back(req.tag);
  }
  EXPECT_EQ(offset, buf.size());
  EXPECT_EQ(tags, (std::vector<uint64_t>{1, 2, 3}));
}

// --- Response round-trips ----------------------------------------------------

TEST(FrameCodec, ResponseRoundTripSplitsMetaFromPayload) {
  const std::string v0 = "value-zero";
  const std::string v2(300, 'x');  // Length needs more than one byte.
  ResponseBuilder builder(WireOp::kMultiGet, 55, 3);
  builder.AddItem(StatusCode::kOk, v0);
  builder.AddItem(StatusCode::kNotFound);
  builder.AddItem(StatusCode::kOk, v2);
  WireResponse resp = std::move(builder).Finish();

  // The head owns only framing + meta; payload bytes stay views.
  EXPECT_EQ(resp.head.size(),
            kLenPrefixBytes + kResponseHeaderBytes + 3 * kResponseMetaBytes);
  ASSERT_EQ(resp.payloads.size(), 2u);
  EXPECT_EQ(resp.payloads[0].data(), v0.data());  // Same bytes, not a copy.
  EXPECT_EQ(resp.payloads[1].data(), v2.data());
  EXPECT_EQ(resp.TotalBytes(), resp.head.size() + v0.size() + v2.size());

  // Decoded values are views into the body, so it must outlive `out`.
  const std::string body = FlattenResponse(resp);
  DecodedResponse out;
  ASSERT_TRUE(DecodeResponse(body, &out).ok());
  EXPECT_EQ(out.op, WireOp::kMultiGet);
  EXPECT_EQ(out.tag, 55u);
  EXPECT_EQ(out.overall, StatusCode::kOk);
  ASSERT_EQ(out.codes.size(), 3u);
  EXPECT_EQ(out.codes[0], StatusCode::kOk);
  EXPECT_EQ(out.codes[1], StatusCode::kNotFound);
  EXPECT_EQ(out.codes[2], StatusCode::kOk);
  ASSERT_EQ(out.values.size(), 3u);
  EXPECT_EQ(out.values[0], v0);
  EXPECT_EQ(out.values[1], "");
  EXPECT_EQ(out.values[2], v2);
}

TEST(FrameCodec, ErrorResponseCarriesOverallCode) {
  WireResponse resp = ErrorResponse(WireOp::kMultiPut, 8, StatusCode::kUnavailable);
  DecodedResponse out;
  ASSERT_TRUE(DecodeResponse(FlattenResponse(resp), &out).ok());
  EXPECT_EQ(out.op, WireOp::kMultiPut);
  EXPECT_EQ(out.tag, 8u);
  EXPECT_EQ(out.overall, StatusCode::kUnavailable);
  EXPECT_TRUE(out.codes.empty());
}

// --- Stream reassembly and malformed input -----------------------------------

TEST(FrameCodec, NextFrameReportsShortReads) {
  std::string frame;
  EncodeKeysRequest(WireOp::kMultiGet, 1, 2, {"some-key"}, &frame);
  // Every strict prefix is "short", never invalid, never a crash.
  for (size_t len = 0; len < frame.size(); ++len) {
    size_t offset = 0;
    std::string_view body;
    const Status st =
        NextFrame(std::string_view(frame.data(), len), &offset, &body);
    EXPECT_EQ(st.code(), StatusCode::kUnavailable) << "prefix " << len;
    EXPECT_EQ(offset, 0u);
  }
}

TEST(FrameCodec, NextFrameRejectsCorruptLengths) {
  for (uint32_t body_len : {uint32_t{0}, static_cast<uint32_t>(kMaxFrameBytes + 1),
                            uint32_t{0xffffffff}}) {
    std::string buf(4, '\0');
    std::memcpy(buf.data(), &body_len, 4);
    buf.append(16, 'x');
    size_t offset = 0;
    std::string_view body;
    EXPECT_EQ(NextFrame(buf, &offset, &body).code(),
              StatusCode::kInvalidArgument)
        << body_len;
  }
}

TEST(FrameCodec, DecodeRejectsTruncatedBodies) {
  std::string frame;
  EncodeMultiPutRequest(3, 4, {{"key-one", "value-one"}, {"k2", "v2"}}, &frame);
  const std::string_view body = BodyOf(frame);
  for (size_t len = 0; len < body.size(); ++len) {
    DecodedRequest req;
    EXPECT_FALSE(DecodeRequest(body.substr(0, len), &req).ok())
        << "prefix " << len;
  }

  ResponseBuilder builder(WireOp::kMultiGet, 5, 1);
  builder.AddItem(StatusCode::kOk, "payload");
  const std::string resp_body = FlattenResponse(std::move(builder).Finish());
  for (size_t len = 0; len < resp_body.size(); ++len) {
    DecodedResponse out;
    EXPECT_FALSE(
        DecodeResponse(std::string_view(resp_body).substr(0, len), &out).ok())
        << "prefix " << len;
  }
}

TEST(FrameCodec, DecodeRejectsTrailingGarbage) {
  std::string frame;
  EncodeKeysRequest(WireOp::kMultiDelete, 1, 2, {"k"}, &frame);
  std::string body(BodyOf(frame));
  body.push_back('!');
  DecodedRequest req;
  EXPECT_FALSE(DecodeRequest(body, &req).ok());
}

TEST(FrameCodec, DecodeRejectsWrongMagicVersionOpcode) {
  std::string frame;
  EncodePingRequest(1, &frame);
  const std::string_view good = BodyOf(frame);

  std::string bad(good);
  bad[0] ^= 0x01;  // Magic.
  DecodedRequest req;
  EXPECT_FALSE(DecodeRequest(bad, &req).ok());

  bad.assign(good);
  bad[4] = 99;  // Version.
  EXPECT_FALSE(DecodeRequest(bad, &req).ok());

  bad.assign(good);
  bad[5] = 0x7f;  // Opcode.
  EXPECT_FALSE(DecodeRequest(bad, &req).ok());

  // A response body is not a request body and vice versa.
  ResponseBuilder builder(WireOp::kPing, 1, 0);
  const std::string resp_body = FlattenResponse(std::move(builder).Finish());
  EXPECT_FALSE(DecodeRequest(resp_body, &req).ok());
  DecodedResponse out;
  EXPECT_FALSE(DecodeResponse(good, &out).ok());
}

// Seeded garbage: random bodies must decode to an error, never crash or
// overread (ASan guards the latter).
TEST(FrameCodec, FuzzRandomBodiesNeverCrash) {
  Rng rng(0xf0a2);
  for (int iter = 0; iter < 4000; ++iter) {
    std::string body(rng.NextBelow(128), '\0');
    for (char& c : body) {
      c = static_cast<char>(rng.NextBelow(256));
    }
    DecodedRequest req;
    DecodedResponse resp;
    (void)DecodeRequest(body, &req);
    (void)DecodeResponse(body, &resp);
  }
}

// Seeded mutations of VALID frames: flip a few bytes, decode must either
// fail cleanly or produce internally consistent output.
TEST(FrameCodec, FuzzMutatedFramesNeverCrash) {
  std::string frame;
  EncodeMultiPutRequest(
      11, 22, {{"alpha", "one"}, {"beta", std::string(64, 'b')}}, &frame);
  const std::string_view orig = BodyOf(frame);

  Rng rng(0xbead);
  for (int iter = 0; iter < 4000; ++iter) {
    std::string body(orig);
    const size_t flips = 1 + rng.NextBelow(4);
    for (size_t f = 0; f < flips; ++f) {
      body[rng.NextBelow(body.size())] ^=
          static_cast<char>(1 + rng.NextBelow(255));
    }
    DecodedRequest req;
    if (DecodeRequest(body, &req).ok()) {
      // Lengths the decoder accepted must stay inside the buffer.
      for (std::string_view k : req.keys) {
        EXPECT_GE(k.data(), body.data());
        EXPECT_LE(k.data() + k.size(), body.data() + body.size());
      }
      for (std::string_view v : req.values) {
        EXPECT_GE(v.data(), body.data());
        EXPECT_LE(v.data() + v.size(), body.data() + body.size());
      }
    }
  }
}

// --- CompletionWindow --------------------------------------------------------

TEST(CompletionWindow, TagsAreSubmissionOrdered) {
  CompletionWindow window(0);
  EXPECT_EQ(window.Begin(), 1u);
  EXPECT_EQ(window.Begin(), 2u);
  EXPECT_EQ(window.Begin(), 3u);
  EXPECT_EQ(window.in_flight(), 3u);
  window.Complete(2, Status::Ok());
  window.Complete(3, Status::Ok());
  window.Complete(1, Status::Ok());
  EXPECT_TRUE(window.Drain().ok());
  EXPECT_EQ(window.max_in_flight(), 3u);
}

TEST(CompletionWindow, DrainReportsEarliestFailureNotFirstArrival) {
  CompletionWindow window(0);
  const uint64_t t1 = window.Begin();
  const uint64_t t2 = window.Begin();
  const uint64_t t3 = window.Begin();
  // Failures complete in reverse arrival order; Drain must still pick t1.
  window.Complete(t3, Unavailable("late submission failed"));
  window.Complete(t1, Timeout("earliest submission failed"));
  window.Complete(t2, Status::Ok());
  const Status st = window.Drain();
  EXPECT_EQ(st.code(), StatusCode::kTimeout);

  // Drain leaves the set for per-tag resolution; TakeErrors consumes it.
  std::vector<TaggedStatus> errors = window.TakeErrors();
  ASSERT_EQ(errors.size(), 2u);
  EXPECT_EQ(errors[0].tag, t1);
  EXPECT_EQ(errors[0].status.code(), StatusCode::kTimeout);
  EXPECT_EQ(errors[1].tag, t3);
  EXPECT_EQ(errors[1].status.code(), StatusCode::kUnavailable);
  EXPECT_TRUE(window.TakeErrors().empty());
}

TEST(CompletionWindow, TakeErrorsSortedBySubmission) {
  CompletionWindow window(0);
  std::vector<uint64_t> tags;
  for (int i = 0; i < 6; ++i) {
    tags.push_back(window.Begin());
  }
  window.Complete(tags[5], Unavailable("e5"));
  window.Complete(tags[1], Unavailable("e1"));
  window.Complete(tags[3], Unavailable("e3"));
  window.Complete(tags[0], Status::Ok());
  window.Complete(tags[2], Status::Ok());
  window.Complete(tags[4], Status::Ok());
  ASSERT_TRUE(window.Drain().code() == StatusCode::kUnavailable);

  std::vector<TaggedStatus> errors = window.TakeErrors();
  ASSERT_EQ(errors.size(), 3u);
  EXPECT_EQ(errors[0].tag, tags[1]);
  EXPECT_EQ(errors[1].tag, tags[3]);
  EXPECT_EQ(errors[2].tag, tags[5]);
  EXPECT_TRUE(window.Drain().ok());  // Fresh epoch after TakeErrors.
}

TEST(CompletionWindow, DepthBoundsOutstanding) {
  CompletionWindow window(2);
  const uint64_t t1 = window.Begin();
  const uint64_t t2 = window.Begin();

  std::atomic<bool> third_began{false};
  std::thread blocked([&] {
    const uint64_t t3 = window.Begin();  // Must wait for a slot.
    third_began.store(true);
    window.Complete(t3, Status::Ok());
  });
  // The third Begin cannot pass while two are outstanding.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(third_began.load());

  window.Complete(t1, Status::Ok());
  blocked.join();
  EXPECT_TRUE(third_began.load());
  window.Complete(t2, Status::Ok());
  EXPECT_TRUE(window.Drain().ok());
  EXPECT_EQ(window.max_in_flight(), 2u);
}

// --- FrameReader: cached-header stream reassembly ----------------------------

TEST(FrameCodec, FrameReaderDeliversFramesAcrossPartialReceives) {
  std::string stream;
  EncodeKeysRequest(WireOp::kMultiGet, 7, 42, {"alpha", "beta"}, &stream);
  EncodePingRequest(9, &stream);

  // Feed the stream one byte at a time: the reader must report short reads
  // until each frame completes, and the cached header must carry across
  // every intermediate growth.
  FrameReader reader;
  std::string buf;
  std::vector<std::string> bodies;
  for (char c : stream) {
    buf.push_back(c);
    std::string_view body;
    const Status st = reader.Next(buf, &body);
    if (st.ok()) {
      bodies.emplace_back(body);
    } else {
      ASSERT_EQ(st.code(), StatusCode::kUnavailable);
    }
  }
  ASSERT_EQ(bodies.size(), 2u);
  EXPECT_EQ(reader.offset(), stream.size());

  DecodedRequest req;
  ASSERT_TRUE(DecodeRequest(bodies[0], &req).ok());
  EXPECT_EQ(req.op, WireOp::kMultiGet);
  EXPECT_EQ(req.tag, 7u);
  EXPECT_EQ(req.block, 42u);
  ASSERT_TRUE(DecodeRequest(bodies[1], &req).ok());
  EXPECT_EQ(req.op, WireOp::kPing);
}

TEST(FrameCodec, FrameReaderRebaseKeepsCachedHeaderThroughCompaction) {
  std::string first, second;
  EncodePingRequest(1, &first);
  EncodeKeysRequest(WireOp::kMultiDelete, 2, 5, {"k"}, &second);

  // Buffer holds the whole first frame plus ONLY the length word of the
  // second — the reader caches the second header, then the consumed prefix
  // is compacted away underneath it.
  FrameReader reader;
  std::string buf = first + second.substr(0, kLenPrefixBytes);
  std::string_view body;
  ASSERT_TRUE(reader.Next(buf, &body).ok());
  EXPECT_EQ(reader.Next(buf, &body).code(), StatusCode::kUnavailable);

  const size_t consumed = reader.offset();
  ASSERT_EQ(consumed, first.size());
  buf.erase(0, consumed);
  reader.Rebase(consumed);
  EXPECT_EQ(reader.offset(), 0u);

  buf.append(second.substr(kLenPrefixBytes));
  ASSERT_TRUE(reader.Next(buf, &body).ok());
  DecodedRequest req;
  ASSERT_TRUE(DecodeRequest(body, &req).ok());
  EXPECT_EQ(req.op, WireOp::kMultiDelete);
  EXPECT_EQ(req.tag, 2u);
}

TEST(FrameCodec, FrameReaderRejectsCorruptLengths) {
  FrameReader reader;
  std::string_view body;

  std::string zero(kLenPrefixBytes, '\0');
  EXPECT_EQ(reader.Next(zero, &body).code(), StatusCode::kInvalidArgument);

  FrameReader reader2;
  const uint32_t huge = static_cast<uint32_t>(kMaxFrameBytes) + 1;
  std::string oversized(reinterpret_cast<const char*>(&huge), 4);
  EXPECT_EQ(reader2.Next(oversized, &body).code(),
            StatusCode::kInvalidArgument);
}

// --- PeekRequestHeader: routing without decoding -----------------------------

TEST(FrameCodec, PeekRequestHeaderMatchesFullDecode) {
  std::string frame;
  EncodeMultiPutRequest(0xBEEF, BlockId{3, 9}.Packed(),
                        {{"key", "value"}}, &frame);
  const std::string_view body = BodyOf(frame);

  WireOp op = WireOp::kPing;
  uint64_t tag = 0, block = 0;
  ASSERT_TRUE(PeekRequestHeader(body, &op, &tag, &block).ok());

  DecodedRequest req;
  ASSERT_TRUE(DecodeRequest(body, &req).ok());
  EXPECT_EQ(op, req.op);
  EXPECT_EQ(tag, req.tag);
  EXPECT_EQ(block, req.block);
}

TEST(FrameCodec, PeekRequestHeaderRejectsGarbage) {
  WireOp op = WireOp::kPing;
  uint64_t tag = 0, block = 0;

  // Too short to hold a request header.
  EXPECT_FALSE(PeekRequestHeader("tiny", &op, &tag, &block).ok());

  // Right size, wrong magic.
  std::string junk(kRequestHeaderBytes, 'x');
  EXPECT_FALSE(PeekRequestHeader(junk, &op, &tag, &block).ok());

  // Valid frame with the opcode byte corrupted.
  std::string frame;
  EncodePingRequest(1, &frame);
  frame[kLenPrefixBytes + 5] = 0x7f;
  EXPECT_FALSE(
      PeekRequestHeader(BodyOf(frame), &op, &tag, &block).ok());
}

}  // namespace
}  // namespace jiffy
