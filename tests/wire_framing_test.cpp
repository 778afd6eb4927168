// Unit tests for the wire layer added by the transport refactor: frame
// encode/decode round trips, malformed-image rejection, and the session
// layer's sequencing and ACK-coalescing queues.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "support/error.hpp"
#include "wire/framing.hpp"
#include "wire/session.hpp"

namespace rmiopt::wire {
namespace {

Message make_msg(MsgKind kind, std::uint16_t from, std::uint16_t to,
                 std::size_t payload_bytes = 0, std::uint32_t seq = 0) {
  Message m;
  m.header.kind = kind;
  m.header.callsite_id = 7;
  m.header.target_export = 3;
  m.header.seq = seq;
  m.header.source_machine = from;
  m.header.dest_machine = to;
  for (std::size_t i = 0; i < payload_bytes; ++i) {
    m.payload.put_u8(static_cast<std::uint8_t>(i * 37 + seq));
  }
  return m;
}

void expect_equal(const Message& a, const Message& b) {
  EXPECT_EQ(a.header.kind, b.header.kind);
  EXPECT_EQ(a.header.callsite_id, b.header.callsite_id);
  EXPECT_EQ(a.header.target_export, b.header.target_export);
  EXPECT_EQ(a.header.seq, b.header.seq);
  EXPECT_EQ(a.header.source_machine, b.header.source_machine);
  EXPECT_EQ(a.header.dest_machine, b.header.dest_machine);
  ASSERT_EQ(a.payload.size(), b.payload.size());
  const auto pa = a.payload.contents();
  const auto pb = b.payload.contents();
  for (std::size_t i = 0; i < pa.size(); ++i) EXPECT_EQ(pa[i], pb[i]);
}

TEST(Framing, SingleMessageRoundTrip) {
  Frame frame;
  frame.link_seq = 41;
  frame.messages.push_back(make_msg(MsgKind::Call, 0, 1, 64, 9));

  ByteBuffer image = encode_frame(frame);
  EXPECT_EQ(image.contents()[0], kSingleFrameTag);

  const Frame back = decode_frame(image);
  EXPECT_EQ(back.link_seq, 41u);
  ASSERT_EQ(back.messages.size(), 1u);
  expect_equal(back.messages[0], frame.messages[0]);
  EXPECT_EQ(image.remaining(), 0u);  // the image was consumed exactly
}

TEST(Framing, BatchRoundTripPreservesOrderAndContent) {
  Frame frame;
  frame.link_seq = 129;  // forces a multi-byte varint
  frame.messages.push_back(make_msg(MsgKind::Ack, 2, 5, 0, 1));
  frame.messages.push_back(make_msg(MsgKind::Return, 2, 5, 17, 2));
  frame.messages.push_back(make_msg(MsgKind::Exception, 2, 5, 3, 3));

  ByteBuffer image = encode_frame(frame);
  EXPECT_EQ(image.contents()[0], kBatchFrameTag);

  const Frame back = decode_frame(image);
  EXPECT_EQ(back.link_seq, 129u);
  ASSERT_EQ(back.messages.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    expect_equal(back.messages[i], frame.messages[i]);
  }
}

TEST(Framing, ChargedBytesAreTheSimulatedSizesNotTheImageSize) {
  Frame frame;
  frame.messages.push_back(make_msg(MsgKind::Ack, 0, 1, 10));
  frame.messages.push_back(make_msg(MsgKind::Ack, 0, 1, 20));
  // The charged header size is frozen at kChargedHeaderBytes — NOT
  // sizeof(MessageHeader), which grew when the flags/deadline fields were
  // added; default traffic must price exactly as it always has.
  EXPECT_EQ(frame.charged_bytes(), 2 * kChargedHeaderBytes + 30);
  // The physical image uses explicit field-by-field encoding and varint
  // lengths — the cost model must never be driven by its size.
  const ByteBuffer image = encode_frame(frame);
  EXPECT_NE(image.size(), frame.charged_bytes());
}

TEST(Framing, DeadlineIsChargedOnlyWhenPresent) {
  Message plain = make_msg(MsgKind::Call, 0, 1, 10);
  Message dated = make_msg(MsgKind::Call, 0, 1, 10);
  dated.header.deadline_ns = 123'456'789;
  EXPECT_EQ(plain.wire_size(), kChargedHeaderBytes + 10);
  EXPECT_EQ(dated.wire_size(), kChargedHeaderBytes + 8 + 10);
}

TEST(Framing, FlagsAndDeadlineRoundTrip) {
  Frame frame;
  frame.link_seq = 3;
  Message m = make_msg(MsgKind::Call, 0, 1, 12, 44);
  m.header.flags = kFlagOneway;
  m.header.deadline_ns = 987'654'321'000;
  frame.messages.push_back(m);
  Message bare = make_msg(MsgKind::Cancel, 0, 1, 0, 45);
  frame.messages.push_back(bare);

  ByteBuffer image = encode_frame(frame);
  const Frame back = decode_frame(image);
  ASSERT_EQ(back.messages.size(), 2u);
  expect_equal(back.messages[0], m);
  EXPECT_EQ(back.messages[0].header.flags, kFlagOneway);
  EXPECT_EQ(back.messages[0].header.deadline_ns, 987'654'321'000);
  expect_equal(back.messages[1], bare);
  EXPECT_EQ(back.messages[1].header.flags, 0);
  EXPECT_EQ(back.messages[1].header.deadline_ns, 0);
}

TEST(Framing, RejectMessageRoundTripsItsCodeAndReason) {
  Frame frame;
  Message rej = make_msg(MsgKind::Reject, 1, 0, 0, 7);
  rej.payload.put_u8(static_cast<std::uint8_t>(RejectCode::Overload));
  rej.payload.put_string("inbox at its bound");
  frame.messages.push_back(rej);

  ByteBuffer image = encode_frame(frame);
  Frame back = decode_frame(image);
  ASSERT_EQ(back.messages.size(), 1u);
  EXPECT_EQ(back.messages[0].header.kind, MsgKind::Reject);
  EXPECT_EQ(static_cast<RejectCode>(back.messages[0].payload.get_u8()),
            RejectCode::Overload);
  EXPECT_EQ(back.messages[0].payload.get_string(), "inbox at its bound");
}

TEST(Framing, EveryTruncationOfAValidImageIsRejected) {
  Frame frame;
  frame.link_seq = 5;
  frame.messages.push_back(make_msg(MsgKind::Return, 1, 0, 33));
  frame.messages.push_back(make_msg(MsgKind::Ack, 1, 0, 2));
  const ByteBuffer image = encode_frame(frame);
  const auto bytes = image.contents();

  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    ByteBuffer truncated(
        std::vector<std::uint8_t>(bytes.begin(), bytes.begin() + cut));
    EXPECT_THROW((void)decode_frame(truncated), Error) << "cut=" << cut;
  }
}

// Seals a hand-built frame body behind `tag` and a valid checksum, so the
// decoder gets past the checksum and must apply the rule under test.
ByteBuffer sealed(std::uint8_t tag, const ByteBuffer& body) {
  ByteBuffer image;
  image.put_u8(tag);
  image.put_u32(frame_checksum(body.contents()));
  image.put_bytes(body.contents().data(), body.size());
  return image;
}

// Decodes `image`, expecting a DecodeError whose message names `rule`.
void expect_rejected_by(ByteBuffer image, const std::string& rule) {
  try {
    (void)decode_frame(image);
    ADD_FAILURE() << "decoded; expected rejection by: " << rule;
  } catch (const DecodeError& e) {
    EXPECT_NE(std::string(e.what()).find(rule), std::string::npos)
        << "rejected for the wrong reason: " << e.what();
  }
}

TEST(Framing, FrameChecksumIsCrc32cOfTheBody) {
  Frame frame;
  frame.link_seq = 9;
  frame.messages.push_back(make_msg(MsgKind::Call, 0, 1, 40));
  const ByteBuffer image = encode_frame(frame);
  const auto bytes = image.contents();
  ByteBuffer head(std::vector<std::uint8_t>(bytes.begin(), bytes.begin() + 5));
  (void)head.get_u8();
  EXPECT_EQ(head.get_u32(), frame_checksum(bytes.subspan(5)));

  const std::string check = "123456789";
  EXPECT_EQ(frame_checksum({reinterpret_cast<const std::uint8_t*>(check.data()),
                            check.size()}),
            0xE3069283u);
}

TEST(Framing, UnknownTagAndKindAreRejected) {
  ByteBuffer bogus_tag;
  bogus_tag.put_u8(0x00);
  bogus_tag.put_varint(0);
  expect_rejected_by(std::move(bogus_tag), "unknown frame tag");

  // A checksum-valid single frame whose message kind byte is out of range.
  ByteBuffer body;
  body.put_varint(0);  // link_seq
  body.put_u8(0x7F);   // kind — no such MsgKind
  body.put_u32(0);
  body.put_u32(0);
  body.put_u32(0);
  body.put(std::uint16_t{0});
  body.put(std::uint16_t{1});
  body.put_u8(0);      // flags
  body.put_varint(0);  // payload_len
  expect_rejected_by(sealed(kSingleFrameTag, body), "unknown message kind");
}

TEST(Framing, AbsurdBatchCountIsRejectedBeforeAllocation) {
  ByteBuffer body;
  body.put_varint(0);                     // link_seq
  body.put_varint(1'000'000'000'000ull);  // count far beyond the image
  expect_rejected_by(sealed(kBatchFrameTag, body), "batch count exceeds image");
}

TEST(Framing, EncodeIntoReusesTheBufferCapacity) {
  Frame frame;
  frame.messages.push_back(make_msg(MsgKind::Call, 0, 1, 2048));
  std::vector<std::uint8_t> out;
  out.reserve(frame.charged_bytes() + kFrameHeaderSlack);
  const std::uint8_t* storage = out.data();
  encode_frame_into(frame, out);
  EXPECT_EQ(out.data(), storage);
  const ByteBuffer image = encode_frame(frame);
  EXPECT_TRUE(std::equal(out.begin(), out.end(), image.contents().begin(),
                         image.contents().end()));
}

TEST(Framing, EmptyFrameCannotBeEncoded) {
  EXPECT_THROW((void)encode_frame(Frame{}), Error);
}

// ---- session layer --------------------------------------------------------

TEST(Session, UnbatchedPostEmitsImmediatelyWithIncreasingLinkSeq) {
  Session s(0, 1, SessionConfig{});
  std::vector<Frame> frames;
  const FrameSink sink = [&](const Frame& f) {
    frames.push_back(f);
    return SendOutcome::Delivered;
  };
  for (std::uint32_t i = 0; i < 3; ++i) {
    s.post(make_msg(MsgKind::Call, 0, 1, 0, i), sink);
  }
  ASSERT_EQ(frames.size(), 3u);
  for (std::uint64_t i = 0; i < 3; ++i) {
    EXPECT_EQ(frames[i].link_seq, i);
    ASSERT_EQ(frames[i].messages.size(), 1u);
    EXPECT_EQ(frames[i].messages[0].header.seq, i);
  }
  EXPECT_EQ(s.queued(), 0u);
}

TEST(Session, WrongLinkIsRejected) {
  Session s(0, 1, SessionConfig{});
  const FrameSink sink = [](const Frame&) { return SendOutcome::Delivered; };
  EXPECT_THROW(s.post(make_msg(MsgKind::Call, 0, 2, 0), sink), Error);
  EXPECT_THROW(s.post(make_msg(MsgKind::Call, 1, 0, 0), sink), Error);
}

TEST(Session, SmallRepliesAreHeldUntilTheBatchFills) {
  SessionConfig cfg;
  cfg.max_batch_messages = 3;
  Session s(1, 0, cfg);
  std::vector<Frame> frames;
  const FrameSink sink = [&](const Frame& f) {
    frames.push_back(f);
    return SendOutcome::Delivered;
  };

  s.post(make_msg(MsgKind::Ack, 1, 0, 0, 0), sink);
  s.post(make_msg(MsgKind::Ack, 1, 0, 0, 1), sink);
  EXPECT_TRUE(frames.empty());
  EXPECT_EQ(s.queued(), 2u);

  s.post(make_msg(MsgKind::Ack, 1, 0, 0, 2), sink);  // fills the batch
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].messages.size(), 3u);
  EXPECT_EQ(s.queued(), 0u);
}

TEST(Session, CallFlushesTheQueueInOneFifoFrame) {
  SessionConfig cfg;
  cfg.max_batch_messages = 8;
  Session s(0, 1, cfg);
  std::vector<Frame> frames;
  const FrameSink sink = [&](const Frame& f) {
    frames.push_back(f);
    return SendOutcome::Delivered;
  };

  s.post(make_msg(MsgKind::Ack, 0, 1, 0, 0), sink);
  s.post(make_msg(MsgKind::Return, 0, 1, 8, 1), sink);
  EXPECT_TRUE(frames.empty());
  s.post(make_msg(MsgKind::Call, 0, 1, 4, 2), sink);  // flush trigger

  // One frame; the held replies leave *ahead of* the Call (FIFO).
  ASSERT_EQ(frames.size(), 1u);
  ASSERT_EQ(frames[0].messages.size(), 3u);
  EXPECT_EQ(frames[0].messages[0].header.kind, MsgKind::Ack);
  EXPECT_EQ(frames[0].messages[1].header.kind, MsgKind::Return);
  EXPECT_EQ(frames[0].messages[2].header.kind, MsgKind::Call);
}

TEST(Session, BulkyReplyIsNotHeldBack) {
  SessionConfig cfg;
  cfg.max_batch_messages = 8;
  cfg.max_batch_payload = 16;
  Session s(0, 1, cfg);
  std::vector<Frame> frames;
  const FrameSink sink = [&](const Frame& f) {
    frames.push_back(f);
    return SendOutcome::Delivered;
  };

  s.post(make_msg(MsgKind::Return, 0, 1, 64), sink);  // over the threshold
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].messages.size(), 1u);
}

TEST(Session, ExplicitFlushSealsPartialBatches) {
  SessionConfig cfg;
  cfg.max_batch_messages = 8;
  Session s(0, 1, cfg);
  std::vector<Frame> frames;
  const FrameSink sink = [&](const Frame& f) {
    frames.push_back(f);
    return SendOutcome::Delivered;
  };

  s.post(make_msg(MsgKind::Ack, 0, 1, 0, 0), sink);
  s.post(make_msg(MsgKind::Ack, 0, 1, 0, 1), sink);
  s.flush(sink);
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].messages.size(), 2u);

  s.flush(sink);  // idempotent on an empty queue
  EXPECT_EQ(frames.size(), 1u);
}

}  // namespace
}  // namespace rmiopt::wire
