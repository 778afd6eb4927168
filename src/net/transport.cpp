#include "net/transport.hpp"

#include <algorithm>

#include "net/machine.hpp"
#include "support/error.hpp"
#include "support/frame_pool.hpp"

namespace rmiopt::net {

SimTime Transport::charge_and_schedule(Machine& sender,
                                       std::size_t charged_bytes) {
  sender.clock().advance(SimTime::nanos(cost_.send_overhead_ns));
  // GM fragments frames larger than one MTU; every fragment after the
  // first adds pipeline overhead to the arrival time.
  const std::int64_t extra_fragments =
      cost_.fragment_bytes > 0
          ? static_cast<std::int64_t>(charged_bytes) / cost_.fragment_bytes
          : 0;
  return sender.clock().now() + SimTime::nanos(cost_.msg_latency_ns) +
         cost_.for_wire_bytes(charged_bytes) +
         SimTime::nanos(extra_fragments * cost_.fragment_overhead_ns);
}

void Transport::probe_frame(const Machine& sender, const Machine& receiver,
                            const wire::Frame& frame) {
  if (frame_probe_) frame_probe_(sender.id(), receiver.id(), frame);
}

void Transport::trace_flight(Machine& sender, const Machine& receiver,
                             const wire::Frame& frame,
                             std::size_t charged_bytes, SimTime arrival) {
  if (recorder_ == nullptr) return;
  trace::Event e;
  e.kind = trace::EventKind::Flight;
  e.track = trace::TrackKind::Link;
  e.machine = sender.id();
  e.peer = receiver.id();
  e.start_ns = sender.clock().now().as_nanos();
  e.dur_ns = std::max<std::int64_t>(arrival.as_nanos() - e.start_ns, 0);
  e.seq = static_cast<std::uint32_t>(frame.link_seq);
  e.count = static_cast<std::uint32_t>(frame.messages.size());
  e.bytes = charged_bytes;
  recorder_->record(e);
}

void Transport::trace_instant(trace::EventKind kind, Machine& sender,
                              const Machine& receiver,
                              std::uint64_t link_seq) {
  if (recorder_ == nullptr) return;
  trace::Event e;
  e.kind = kind;
  e.track = trace::TrackKind::Link;
  e.machine = sender.id();
  e.peer = receiver.id();
  e.start_ns = sender.clock().now().as_nanos();
  e.seq = static_cast<std::uint32_t>(link_seq);
  recorder_->record(e);
}

wire::SendOutcome SimTransport::submit(Machine& sender, Machine& receiver,
                                       const wire::Frame& frame) {
  const std::size_t charged = frame.charged_bytes();
  record(frame.messages.size(), charged);
  stats_.record_gathered(gathered_count(frame));
  const SimTime arrival = charge_and_schedule(sender, charged);
  trace_flight(sender, receiver, frame, charged, arrival);
  probe_frame(sender, receiver, frame);

  // Physical transmission: only the byte image crosses the "wire".  For
  // gathered payloads encode_frame walks the segment list — this is where
  // the NIC concatenates the iovec.
  ByteBuffer image;
  if (cost_.zero_copy_receive) {
    // Zero-copy receive: the image lands in a pooled buffer from the
    // receiver's ring, and decode hands every message a pinned view into
    // it instead of a per-message copy.  The block recycles when the last
    // payload view (or borrowing object) releases it; a dedup-rejected
    // duplicate drops its ref right here when `image` dies.
    support::FramePool::BlockRef block =
        receiver.frame_pool().acquire(charged + wire::kFrameHeaderSlack);
    wire::encode_frame_into(frame, block->bytes);
    const std::uint8_t* data = block->bytes.data();
    const std::size_t size = block->bytes.size();
    image = ByteBuffer::view(data, size, std::move(block));
  } else {
    image = wire::encode_frame(frame);
  }
  wire::Frame received;
  try {
    received = wire::decode_frame(image);
  } catch (const DecodeError&) {
    // A frame this backend itself encoded cannot fail to decode unless
    // something corrupted it in flight; fail closed and let ARQ resend.
    stats_.record_corrupted();
    return wire::SendOutcome::Nacked;
  }

  // Receiver-NIC dedup: a retransmitted or injected copy of a frame the
  // receiver already has is acknowledged but not delivered again.
  if (receiver.accept_link_seq(sender.id(), received.link_seq) !=
      wire::DedupWindow::Verdict::Fresh) {
    stats_.record_dedup_hit();
    return wire::SendOutcome::Delivered;
  }

  for (wire::Message& msg : received.messages) {
    receiver.deliver(std::move(msg), arrival);
  }
  return wire::SendOutcome::Delivered;
}

wire::SendOutcome LoopbackTransport::submit(Machine& sender,
                                            Machine& receiver,
                                            const wire::Frame& frame) {
  const std::size_t charged = frame.charged_bytes();
  record(frame.messages.size(), charged);
  stats_.record_gathered(gathered_count(frame));
  const SimTime arrival = charge_and_schedule(sender, charged);
  trace_flight(sender, receiver, frame, charged, arrival);
  probe_frame(sender, receiver, frame);
  if (receiver.accept_link_seq(sender.id(), frame.link_seq) !=
      wire::DedupWindow::Verdict::Fresh) {
    stats_.record_dedup_hit();
    return wire::SendOutcome::Delivered;
  }
  for (const wire::Message& msg : frame.messages) {
    wire::Message copy;
    copy.header = msg.header;
    // Gathered payloads pass through as segments all the way to delivery;
    // the receive side only ever sees contiguous bytes, so concatenate
    // here, at this backend's NIC boundary.
    if (cost_.zero_copy_receive) {
      // Zero-copy receive: this backend's NIC boundary writes the payload
      // into a pooled buffer from the receiver's ring and delivers a
      // pinned view (one block per message — struct delivery has no frame
      // image for messages to share).
      support::FramePool::BlockRef block =
          receiver.frame_pool().acquire(msg.payload_size());
      if (msg.gathered) {
        msg.gathered->for_each_segment(
            [&](const std::uint8_t* d, std::size_t n) {
              block->bytes.insert(block->bytes.end(), d, d + n);
            });
      } else {
        const auto contents = msg.payload.contents();
        block->bytes.assign(contents.begin(), contents.end());
      }
      const std::uint8_t* data = block->bytes.data();
      const std::size_t size = block->bytes.size();
      copy.payload = ByteBuffer::view(data, size, std::move(block));
    } else {
      copy.payload = msg.gathered
                         ? ByteBuffer(msg.gathered->gather())
                         : ByteBuffer(std::vector<std::uint8_t>(
                               msg.payload.contents().begin(),
                               msg.payload.contents().end()));
    }
    receiver.deliver(std::move(copy), arrival);
  }
  return wire::SendOutcome::Delivered;
}

// ---- FaultyTransport --------------------------------------------------------

FaultyTransport::FaultyTransport(const serial::CostModel& cost,
                                 std::unique_ptr<Transport> inner,
                                 FaultPlan plan)
    : Transport(cost),
      plan_(std::move(plan)),
      inner_(std::move(inner)),
      name_("faulty(" + std::string(inner_->name()) + ")") {}

FaultyTransport::LinkState& FaultyTransport::link_state(std::uint16_t src,
                                                        std::uint16_t dst) {
  return links_[FaultPlan::link_key(src, dst)];
}

wire::SendOutcome FaultyTransport::submit(Machine& sender, Machine& receiver,
                                          const wire::Frame& frame) {
  const std::uint16_t src = sender.id();
  const std::uint16_t dst = receiver.id();

  // Attempt bookkeeping: stop-and-wait under the session lock means a
  // link's retransmits are consecutive submits of the same link_seq.
  std::uint32_t attempt = 0;
  std::unique_ptr<wire::Frame> late_release;
  {
    std::scoped_lock lock(mu_);
    LinkState& st = link_state(src, dst);
    if (st.last_seq == frame.link_seq) {
      attempt = ++st.attempt;
    } else {
      st.last_seq = frame.link_seq;
      st.attempt = 0;
    }
    // A copy held back for reordering arrives late: behind this (newer)
    // frame.  Take it out under the lock, deliver it after the new frame.
    if (st.late != nullptr && st.late->link_seq != frame.link_seq) {
      late_release = std::move(st.late);
    }
  }
  if (attempt > 0) stats_.record_retransmit();

  // A crashed machine neither sends nor receives: the frame vanishes and
  // the sender's ARQ times out.  (Charging the attempt would perturb the
  // sender's clock for traffic that never left a dead NIC, so crashes are
  // silent on the wire; the ARQ backoff timers are still charged by the
  // session.)
  if (plan_.crashed(dst, receiver.clock().now().as_nanos()) ||
      plan_.crashed(src, sender.clock().now().as_nanos())) {
    stats_.record_dropped();
    stats_.record_timeout();
    return wire::SendOutcome::Timeout;
  }

  SplitMix64 dice = plan_.dice(src, dst, frame.link_seq, attempt);
  const LinkFaults& faults = plan_.link(src, dst);

  // Corruption: the byte image is damaged in flight; the receiver's
  // checksum rejects it and NACKs.  The wasted transmission is charged
  // like any other frame (bytes crossed the wire; nothing was delivered).
  if (dice.next_double() < faults.corrupt) {
    stats_.record_corrupted();
    trace_instant(trace::EventKind::FaultCorrupt, sender, receiver,
                  frame.link_seq);
    record(0, frame.charged_bytes());
    (void)charge_and_schedule(sender, frame.charged_bytes());
    // Demonstrate the fail-closed path end to end: flip one bit of the
    // real image and insist the decoder rejects it.
    ByteBuffer image = wire::encode_frame(frame);
    std::vector<std::uint8_t> bytes(std::move(image).take());
    const std::size_t bit = static_cast<std::size_t>(
        dice.next_below(bytes.size() * 8));
    bytes[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    ByteBuffer damaged(std::move(bytes));
    bool rejected = false;
    try {
      (void)wire::decode_frame(damaged);
    } catch (const DecodeError&) {
      rejected = true;  // never decoded into the runtime
    }
    // CRC-32C detects every single-bit error, so a damaged image that
    // decodes is a bug in the frame codec, not bad luck.
    RMIOPT_CHECK(rejected, "frame codec accepted a single-bit-flipped image");
    return wire::SendOutcome::Nacked;
  }

  // Drop: the frame is lost; the sender's only signal is silence.  The
  // send-descriptor cost was still paid.
  if (dice.next_double() < faults.drop) {
    stats_.record_dropped();
    stats_.record_timeout();
    trace_instant(trace::EventKind::FaultDrop, sender, receiver,
                  frame.link_seq);
    record(0, frame.charged_bytes());
    (void)charge_and_schedule(sender, frame.charged_bytes());
    return wire::SendOutcome::Timeout;
  }

  const bool duplicate = dice.next_double() < faults.duplicate;
  const bool reorder = dice.next_double() < faults.reorder;

  const wire::SendOutcome out = inner_->submit(sender, receiver, frame);

  if (duplicate) {
    stats_.record_duplicated();
    trace_instant(trace::EventKind::FaultDuplicate, sender, receiver,
                  frame.link_seq);
    (void)inner_->submit(sender, receiver, frame);  // window discards it
  }
  if (reorder) {
    // Hold a stale copy; it arrives behind the next frame on this link —
    // the only reordering a stop-and-wait link can exhibit (in-order
    // delivery of *fresh* frames is guaranteed by the ARQ itself).
    std::scoped_lock lock(mu_);
    link_state(src, dst).late = std::make_unique<wire::Frame>(frame);
  }
  if (late_release != nullptr) {
    stats_.record_reordered();
    trace_instant(trace::EventKind::FaultReorder, sender, receiver,
                  late_release->link_seq);
    (void)inner_->submit(sender, receiver, *late_release);  // stale: dedup
  }
  return out;
}

std::unique_ptr<Transport> make_transport(TransportKind kind,
                                          const serial::CostModel& cost) {
  switch (kind) {
    case TransportKind::Sim:
      return std::make_unique<SimTransport>(cost);
    case TransportKind::Loopback:
      return std::make_unique<LoopbackTransport>(cost);
  }
  RMIOPT_CHECK(false, "unknown transport kind");
  return nullptr;
}

}  // namespace rmiopt::net
