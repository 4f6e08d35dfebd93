// TV control unit: turns remote-key input into component commands.
//
// This is the "real software" side of the model-to-model experiments:
// hand-written C++ with the feature interactions §4.2 warns about (dual
// screen vs teletext vs OSD, digits meaning channel or teletext page,
// child lock, sleep timer). TvControl keeps its own *belief* about
// volume/channel/screen; the belief diverges from component reality when
// a command message is lost — producing exactly the silent errors the
// awareness monitor is built to catch.
//
// Every handler is instrumented with a block hook (ControlBlock ids) so
// the diagnosis module can collect program spectra from real control
// code (§4.4).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "runtime/event.hpp"
#include "runtime/sim_time.hpp"
#include "tv/components.hpp"
#include "tv/keys.hpp"
#include "tv/signal.hpp"

namespace trader::tv {

/// A command from the control unit to a component.
struct Command {
  std::string component;  ///< "audio", "tuner", "teletext", "osd", "swivel".
  std::string action;     ///< e.g. "set_volume".
  std::map<std::string, runtime::Value> args;
};

/// Instrumentation block ids inside TvControl (for program spectra).
enum ControlBlock : int {
  kBlkPowerOn = 0,
  kBlkPowerOff,
  kBlkIgnoredOff,
  kBlkDigitEntry,
  kBlkDigitCommit,
  kBlkDigitTimeout,
  kBlkChannelUp,
  kBlkChannelDown,
  kBlkChannelBlocked,
  kBlkVolumeUp,
  kBlkVolumeDown,
  kBlkUnmuteOnVolume,
  kBlkMuteToggle,
  kBlkTtxEnter,
  kBlkTtxExit,
  kBlkTtxPage,
  kBlkTtxDigit,
  kBlkDualEnter,
  kBlkDualExit,
  kBlkDualFromTtx,
  kBlkMenuEnter,
  kBlkMenuExit,
  kBlkMenuKeySwallow,
  kBlkBack,
  kBlkSleepCycle,
  kBlkSleepExpire,
  kBlkSwivelLeft,
  kBlkSwivelRight,
  kBlkChildLockToggle,
  kBlkSourceCycle,
  kBlkSourceFromTtx,
  kBlkSourceFromDual,
  kBlkExternalSourceSwallow,
  kBlkTick,
  kBlkCount,
};

/// User-visible screen contents as the control unit believes them.
enum class Screen : std::uint8_t { kOff, kVideo, kDual, kTeletext, kMenu };

const char* to_string(Screen s);

class TvControl {
 public:
  struct Config {
    int volume_step = 5;
    int initial_volume = 30;
    int initial_channel = 1;
    runtime::SimDuration digit_timeout = runtime::msec(1500);
    int adult_channel_threshold = 30;  ///< Channels above need no lock? below.
  };

  explicit TvControl(const ChannelLineup& lineup);
  TvControl(const ChannelLineup& lineup, Config config);

  /// Handle a key press; returns commands to route to components.
  std::vector<Command> handle_key(Key key, runtime::SimTime now);

  /// Periodic work (digit-entry timeout, sleep-timer expiry).
  std::vector<Command> tick(runtime::SimTime now);

  // --- Belief state ----------------------------------------------------
  bool powered() const { return powered_; }
  int channel() const { return channel_; }
  int dual_channel() const { return dual_channel_; }
  int volume() const { return volume_; }
  bool muted() const { return muted_; }
  Screen screen() const { return screen_; }
  std::string screen_name() const { return to_string(screen_); }
  bool child_lock() const { return child_lock_; }
  int teletext_page() const { return ttx_page_; }
  AvSource source() const { return source_; }
  /// Sleep minutes remaining (0 = off).
  int sleep_minutes(runtime::SimTime now) const;
  /// Expected audible sound level according to beliefs.
  int expected_sound_level() const { return (!powered_ || muted_) ? 0 : volume_; }

  /// Install the instrumentation hook (may be null).
  void set_block_hook(std::function<void(int)> hook) { block_hook_ = std::move(hook); }

  /// Memory-corruption fault entry point: overwrite the volume belief.
  void corrupt_volume(int bogus) { volume_ = bogus; }

 private:
  void hit(int block) const {
    if (block_hook_) block_hook_(block);
  }
  std::vector<Command> commit_channel(int target, runtime::SimTime now);
  std::vector<Command> power_on(runtime::SimTime now);
  std::vector<Command> power_off();

  const ChannelLineup& lineup_;
  Config config_;
  std::function<void(int)> block_hook_;

  bool powered_ = false;
  int channel_;
  int dual_channel_;
  int volume_;
  bool muted_ = false;
  Screen screen_ = Screen::kOff;
  bool child_lock_ = false;
  int ttx_page_ = 100;
  AvSource source_ = AvSource::kAntenna;

  std::string digit_buffer_;
  runtime::SimTime digit_deadline_ = -1;
  runtime::SimTime sleep_deadline_ = -1;
};

}  // namespace trader::tv
