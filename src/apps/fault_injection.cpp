#include "apps/fault_injection.hpp"

#include <ctime>

#include "common/bytes.hpp"

namespace legosdn::apps {

bool CrashTrigger::matches(const ctl::Event& e) const {
  if (on_type && ctl::event_type(e) != *on_type) return false;
  if (on_dpid && ctl::event_dpid(e) != *on_dpid) return false;
  if (on_tp_dst) {
    const auto* pin = std::get_if<of::PacketIn>(&e);
    if (!pin || pin->packet.hdr.tp_dst != *on_tp_dst) return false;
  }
  return true;
}

bool TriggerState::fire(const ctl::Event& e) {
  if (healed_ || !trigger_.matches(e)) return false;
  matched_ += 1;
  if (matched_ <= trigger_.skip_first) return false;
  if (trigger_.probability < 1.0) {
    // FNV-1a over the event's rendering, keyed by the seed. Not a draw from
    // a sequence: replay after a restore re-delivers a timing-dependent
    // number of logged events, and must reach the same decisions.
    std::uint64_t h = seed_ ^ 0xCBF29CE484222325ULL;
    for (const char c : ctl::describe(e))
      h = (h ^ static_cast<std::uint8_t>(c)) * 0x100000001B3ULL;
    if (!Rng(h).chance(trigger_.probability)) return false;
  }
  fired_ += 1;
  if (!trigger_.deterministic) healed_ = true; // transient bug: fires once
  return true;
}

void TriggerState::encode(ByteWriter& w) const {
  w.u64(matched_);
  w.u64(fired_);
  w.u8(healed_ ? 1 : 0);
}

void TriggerState::decode(ByteReader& r) {
  matched_ = r.u64();
  fired_ = r.u64();
  healed_ = r.u8() != 0;
}

void TriggerState::reset() {
  matched_ = 0;
  fired_ = 0;
  healed_ = false;
}

// ---------------------------------------------------------------------------
// CrashyApp
// ---------------------------------------------------------------------------

ctl::Disposition CrashyApp::handle_event(const ctl::Event& e, ctl::ServiceApi& api) {
  if (state_.fire(e)) {
    throw ctl::AppCrash(name() + " crashed on " + ctl::describe(e));
  }
  return inner_->handle_event(e, api);
}

std::vector<std::uint8_t> CrashyApp::snapshot_state() const {
  ByteWriter w;
  state_.encode(w);
  w.blob(inner_->snapshot_state());
  return std::move(w).take();
}

void CrashyApp::restore_state(std::span<const std::uint8_t> state) {
  ByteReader r(state);
  state_.decode(r);
  const auto inner = r.blob();
  inner_->restore_state(inner);
}

void CrashyApp::reset() {
  state_.reset();
  inner_->reset();
}

// ---------------------------------------------------------------------------
// ByzantineApp
// ---------------------------------------------------------------------------

ctl::Disposition ByzantineApp::handle_event(const ctl::Event& e,
                                            ctl::ServiceApi& api) {
  if (state_.fire(e)) {
    corrupt(e, api);
    return ctl::Disposition::kStop;
  }
  return inner_->handle_event(e, api);
}

void ByzantineApp::corrupt(const ctl::Event& e, ctl::ServiceApi& api) {
  const auto* pin = std::get_if<of::PacketIn>(&e);
  const DatapathId dpid = ctl::event_dpid(e);
  switch (mode_) {
    case Mode::kBlackHole: {
      // Forward the triggering flow into a port that does not exist.
      of::FlowMod mod;
      mod.dpid = dpid;
      if (pin) {
        mod.match = of::Match{}.with_eth_dst(pin->packet.hdr.eth_dst);
      }
      mod.priority = 0xE000;
      mod.actions = of::output_to(PortNo{0xEE00});
      api.send({api.next_xid(), mod});
      break;
    }
    case Mode::kLoop: {
      if (!loop_link_) break;
      const auto& [a, b] = *loop_link_;
      // Two rules that bounce matching traffic across the link forever.
      for (const auto& [self, out] :
           {std::pair{a.dpid, a.port}, std::pair{b.dpid, b.port}}) {
        of::FlowMod mod;
        mod.dpid = self;
        if (pin) mod.match = of::Match{}.with_eth_dst(pin->packet.hdr.eth_dst);
        mod.priority = 0xE000;
        mod.actions = of::output_to(out);
        api.send({api.next_xid(), mod});
      }
      break;
    }
    case Mode::kDropAll: {
      of::FlowMod mod;
      mod.dpid = dpid;
      mod.match = of::Match::any();
      mod.priority = 0xFFFF;
      mod.actions = {}; // drop everything
      api.send({api.next_xid(), mod});
      break;
    }
  }
}

std::vector<std::uint8_t> ByzantineApp::snapshot_state() const {
  ByteWriter w;
  state_.encode(w);
  w.blob(inner_->snapshot_state());
  return std::move(w).take();
}

void ByzantineApp::restore_state(std::span<const std::uint8_t> state) {
  ByteReader r(state);
  state_.decode(r);
  const auto inner = r.blob();
  inner_->restore_state(inner);
}

void ByzantineApp::reset() {
  state_.reset();
  inner_->reset();
}

// ---------------------------------------------------------------------------
// ChattyApp
// ---------------------------------------------------------------------------

ctl::Disposition ChattyApp::handle_event(const ctl::Event& e, ctl::ServiceApi& api) {
  if (state_.fire(e)) {
    const DatapathId dpid = ctl::event_dpid(e);
    for (std::size_t i = 0; i < burst_; ++i) {
      of::FlowMod mod;
      mod.dpid = dpid;
      mod.match = of::Match{}.with_tp_dst(static_cast<std::uint16_t>(i));
      mod.priority = 2;
      mod.actions = of::output_to(ports::kFlood);
      api.send({api.next_xid(), mod});
    }
    return ctl::Disposition::kStop;
  }
  return inner_->handle_event(e, api);
}

std::vector<std::uint8_t> ChattyApp::snapshot_state() const {
  ByteWriter w;
  state_.encode(w);
  w.blob(inner_->snapshot_state());
  return std::move(w).take();
}

void ChattyApp::restore_state(std::span<const std::uint8_t> state) {
  ByteReader r(state);
  state_.decode(r);
  const auto inner = r.blob();
  inner_->restore_state(inner);
}

void ChattyApp::reset() {
  state_.reset();
  inner_->reset();
}

// ---------------------------------------------------------------------------
// WedgedApp
// ---------------------------------------------------------------------------

ctl::Disposition WedgedApp::handle_event(const ctl::Event& e, ctl::ServiceApi& api) {
  if (state_.fire(e)) {
    // Hang forever: an infinite-loop bug. Under process isolation the proxy
    // deadline kills the stub; the sleep keeps the spin from burning a core.
    for (;;) {
      struct timespec ts{1, 0};
      ::nanosleep(&ts, nullptr);
    }
  }
  return inner_->handle_event(e, api);
}

// ---------------------------------------------------------------------------
// StatefulApp
// ---------------------------------------------------------------------------

StatefulApp::StatefulApp(std::size_t state_bytes, std::size_t touch_pages)
    : blob_(state_bytes, 0), touch_pages_(touch_pages) {}

ctl::Disposition StatefulApp::handle_event(const ctl::Event& e,
                                           ctl::ServiceApi& api) {
  const auto* pin = std::get_if<of::PacketIn>(&e);
  if (!pin) return ctl::Disposition::kContinue;
  mutations_ += 1;
  if (!blob_.empty()) {
    constexpr std::size_t kPage = 4096;
    if (touch_pages_ == 0) {
      // Touch a spread of the state so snapshots cannot be trivially deduped.
      for (std::size_t i = 0; i < blob_.size(); i += kPage) {
        blob_[i] = static_cast<std::uint8_t>(mutations_ + i);
      }
    } else {
      // Sparse working set: rotate through `touch_pages_` pages per event.
      const std::size_t pages = (blob_.size() + kPage - 1) / kPage;
      for (std::size_t p = 0; p < touch_pages_; ++p) {
        const std::size_t page = (mutations_ * touch_pages_ + p) % pages;
        blob_[page * kPage] = static_cast<std::uint8_t>(mutations_ + page);
      }
    }
    blob_[mutations_ % blob_.size()] ^= 0x5A;
  }
  of::PacketOut po;
  po.dpid = pin->dpid;
  po.buffer_id = pin->buffer_id;
  po.in_port = pin->in_port;
  po.actions = of::output_to(ports::kFlood);
  po.packet = pin->packet;
  api.send({api.next_xid(), po});
  return ctl::Disposition::kStop;
}

} // namespace legosdn::apps
