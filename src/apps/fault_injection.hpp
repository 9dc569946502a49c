// Fault-injection wrappers: the repository's substitute for the FlowScale
// bug corpus the paper surveys (DESIGN.md §5).
//
// The paper's central observation is that SDN-App bugs are *deterministic*
// and *event-triggered*: "the cause of an SDN-App's failure is simply the
// last event processed before failure". CrashTrigger reproduces exactly that
// structure — a predicate over events plus an occurrence count — and the
// wrappers turn any well-behaved app into:
//   - CrashyApp:    fail-stop on the triggering event (throws AppCrash);
//   - ByzantineApp: emits network-corrupting rules on the triggering event
//                   (black-hole / forwarding loop / drop-all);
//   - StatefulApp:  a hub with a configurable amount of opaque state, for
//                   checkpoint-cost measurements.
#pragma once

#include <optional>

#include "common/rng.hpp"
#include "controller/app.hpp"

namespace legosdn::apps {

/// Predicate describing which events trigger the injected bug.
struct CrashTrigger {
  std::optional<ctl::EventType> on_type;  ///< event type filter
  std::optional<DatapathId> on_dpid;      ///< switch filter
  std::optional<std::uint16_t> on_tp_dst; ///< packet-in destination-port filter
  std::uint64_t skip_first = 0;           ///< let this many matching events pass
  bool deterministic = true;              ///< false: bug heals after first firing
  /// Share of matching events that fire. Decided per event by a seeded
  /// hash of the event itself, so the same event always fires or never
  /// does: a recovery's replay cannot change the answer.
  double probability = 1.0;

  /// Pure predicate (no occurrence counting).
  bool matches(const ctl::Event& e) const;
};

/// Shared trigger-evaluation state for the wrappers below.
class TriggerState {
public:
  TriggerState(CrashTrigger trigger, std::uint64_t seed)
      : trigger_(trigger), seed_(seed) {}

  /// Evaluate the trigger against an event, advancing occurrence counters.
  bool fire(const ctl::Event& e);

  std::uint64_t matched() const noexcept { return matched_; }
  std::uint64_t fired() const noexcept { return fired_; }
  bool healed() const noexcept { return healed_; }

  void encode(ByteWriter& w) const;
  void decode(ByteReader& r);
  void reset();

private:
  CrashTrigger trigger_;
  std::uint64_t seed_;
  std::uint64_t matched_ = 0;
  std::uint64_t fired_ = 0;
  bool healed_ = false;
};

/// Wraps an app with a deterministic fail-stop bug.
class CrashyApp : public ctl::App {
public:
  CrashyApp(ctl::AppPtr inner, CrashTrigger trigger, std::uint64_t seed = 42)
      : inner_(std::move(inner)), state_(trigger, seed) {}

  std::string name() const override { return inner_->name() + "+crashy"; }
  std::vector<ctl::EventType> subscriptions() const override {
    return inner_->subscriptions();
  }

  ctl::Disposition handle_event(const ctl::Event& e, ctl::ServiceApi& api) override;

  std::vector<std::uint8_t> snapshot_state() const override;
  void restore_state(std::span<const std::uint8_t> state) override;
  void reset() override;

  const TriggerState& trigger_state() const noexcept { return state_; }
  ctl::App& inner() noexcept { return *inner_; }

private:
  ctl::AppPtr inner_;
  TriggerState state_;
};

/// Wraps an app with a byzantine bug: on trigger it installs corrupt rules
/// instead of (not in addition to) the inner app's correct behaviour.
class ByzantineApp : public ctl::App {
public:
  enum class Mode {
    kBlackHole, ///< forwards the triggering flow into a nonexistent port
    kLoop,      ///< installs a two-switch forwarding cycle across loop_link
    kDropAll,   ///< installs a top-priority drop-everything rule
  };

  ByzantineApp(ctl::AppPtr inner, CrashTrigger trigger, Mode mode,
               std::optional<std::pair<PortLocator, PortLocator>> loop_link =
                   std::nullopt,
               std::uint64_t seed = 42)
      : inner_(std::move(inner)),
        state_(trigger, seed),
        mode_(mode),
        loop_link_(loop_link) {}

  std::string name() const override { return inner_->name() + "+byzantine"; }
  std::vector<ctl::EventType> subscriptions() const override {
    return inner_->subscriptions();
  }

  ctl::Disposition handle_event(const ctl::Event& e, ctl::ServiceApi& api) override;

  std::vector<std::uint8_t> snapshot_state() const override;
  void restore_state(std::span<const std::uint8_t> state) override;
  void reset() override;

  const TriggerState& trigger_state() const noexcept { return state_; }

private:
  void corrupt(const ctl::Event& e, ctl::ServiceApi& api);

  ctl::AppPtr inner_;
  TriggerState state_;
  Mode mode_;
  std::optional<std::pair<PortLocator, PortLocator>> loop_link_;
};

/// Wraps an app with a resource-hogging bug: on trigger it emits `burst`
/// flow-mods for one event (a rogue app chewing through controller and
/// switch resources — the §3.4 per-app resource-limit motivation).
class ChattyApp : public ctl::App {
public:
  ChattyApp(ctl::AppPtr inner, CrashTrigger trigger, std::size_t burst,
            std::uint64_t seed = 42)
      : inner_(std::move(inner)), state_(trigger, seed), burst_(burst) {}

  std::string name() const override { return inner_->name() + "+chatty"; }
  std::vector<ctl::EventType> subscriptions() const override {
    return inner_->subscriptions();
  }

  ctl::Disposition handle_event(const ctl::Event& e, ctl::ServiceApi& api) override;

  std::vector<std::uint8_t> snapshot_state() const override;
  void restore_state(std::span<const std::uint8_t> state) override;
  void reset() override;

private:
  ctl::AppPtr inner_;
  TriggerState state_;
  std::size_t burst_;
};

/// Wraps an app with a hang bug: on trigger the handler never returns.
/// Only meaningful under process isolation, where the proxy's deliver
/// deadline fires, the stub is killed, and the event is treated as a crash
/// (§4.1: "the proxy uses communication failures ... to detect that the
/// SDN-App has crashed"). Never deliver a triggering event to this app in an
/// in-process domain — the call would block forever.
class WedgedApp : public ctl::App {
public:
  WedgedApp(ctl::AppPtr inner, CrashTrigger trigger, std::uint64_t seed = 42)
      : inner_(std::move(inner)), state_(trigger, seed) {}

  std::string name() const override { return inner_->name() + "+wedged"; }
  std::vector<ctl::EventType> subscriptions() const override {
    return inner_->subscriptions();
  }

  ctl::Disposition handle_event(const ctl::Event& e, ctl::ServiceApi& api) override;

private:
  ctl::AppPtr inner_;
  TriggerState state_;
};

/// A hub carrying `state_bytes` of opaque state that it mutates every event.
/// Checkpoint cost is proportional to state size; this app sweeps that axis.
///
/// `touch_pages` controls the write pattern: 0 (default) dirties every 4 KiB
/// page per event — the worst case for incremental snapshots — while N > 0
/// dirties only N rotating pages per event, modelling an app whose working
/// set is a small slice of its state (the case delta encoding exploits).
class StatefulApp : public ctl::App {
public:
  explicit StatefulApp(std::size_t state_bytes, std::size_t touch_pages = 0);

  std::string name() const override { return "stateful-app"; }
  std::vector<ctl::EventType> subscriptions() const override {
    return {ctl::EventType::kPacketIn};
  }

  ctl::Disposition handle_event(const ctl::Event& e, ctl::ServiceApi& api) override;

  std::vector<std::uint8_t> snapshot_state() const override { return blob_; }
  void restore_state(std::span<const std::uint8_t> state) override {
    blob_.assign(state.begin(), state.end());
  }
  void reset() override { std::fill(blob_.begin(), blob_.end(), 0); }

  std::uint64_t mutations() const noexcept { return mutations_; }

private:
  std::vector<std::uint8_t> blob_;
  std::size_t touch_pages_ = 0;
  std::uint64_t mutations_ = 0;
};

} // namespace legosdn::apps
