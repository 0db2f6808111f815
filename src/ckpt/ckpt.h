// Checkpoint format primitives: a versioned, checksummed binary container
// for simulation snapshots (docs/CHECKPOINT.md).
//
// Layout of a checkpoint file:
//
//   u32  magic   "MDRK"
//   u32  format version (kVersion; a reader rejects any other value)
//   u64  payload length in bytes
//   ...  payload (the serialized simulation state)
//   u32  FNV-1a checksum of the payload (proto/checksum.h)
//
// All integers are little-endian; doubles travel as their IEEE-754 bit
// pattern, so a round trip is bit-exact. Writer/Reader are dumb byte
// streams — every subsystem serializes its own state through them with
// save(Writer&)/load(Reader&) member functions, and NetworkSim
// (sim/network_sim.cc) owns the overall save_checkpoint()/
// restore_checkpoint() orchestration.
//
// Failure policy: loading NEVER guesses. A bad magic, unknown version,
// checksum mismatch, truncated stream, or section-marker mismatch throws
// ckpt::Error with a description; callers surface it and fall back to a
// fresh run. Writing is atomic: the payload lands in "<path>.tmp" and is
// renamed over the target, so a crash mid-write can never leave a
// half-written file where a resumable checkpoint should be.
#pragma once

#include <bit>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "proto/checksum.h"

namespace mdr::ckpt {

class Error : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

inline constexpr std::uint32_t kMagic = 0x4b52444du;  // "MDRK" little-endian
// v2: incremental RouterTables. v3: one engine — the pause-plan cursor is
// the only resume cursor, and the second windowed delay series is gone.
inline constexpr std::uint32_t kVersion = 3;

class Writer {
 public:
  void u8(std::uint8_t v) { buf_.push_back(v); }
  void b(bool v) { u8(v ? 1 : 0); }
  void u32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
  void str(const std::string& s) {
    u64(s.size());
    buf_.insert(buf_.end(), s.begin(), s.end());
  }
  void bytes(const std::vector<std::uint8_t>& v) {
    u64(v.size());
    buf_.insert(buf_.end(), v.begin(), v.end());
  }
  /// Section anchor: a labeled guard the reader must match exactly. Cheap
  /// insurance that writer and reader walk the state in the same order.
  void mark(std::uint32_t label) { u32(0x5ec70000u | (label & 0xffffu)); }

  const std::vector<std::uint8_t>& payload() const { return buf_; }

  /// Writes magic/version/length/payload/checksum atomically (tmp + rename).
  void write_file(const std::string& path) const {
    const std::string tmp = path + ".tmp";
    {
      std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
      if (!out) throw Error("cannot open " + tmp + " for writing");
      const auto put32 = [&out](std::uint32_t v) {
        char b[4];
        for (int i = 0; i < 4; ++i) b[i] = static_cast<char>(v >> (8 * i));
        out.write(b, 4);
      };
      const auto put64 = [&out](std::uint64_t v) {
        char b[8];
        for (int i = 0; i < 8; ++i) b[i] = static_cast<char>(v >> (8 * i));
        out.write(b, 8);
      };
      put32(kMagic);
      put32(kVersion);
      put64(buf_.size());
      out.write(reinterpret_cast<const char*>(buf_.data()),
                static_cast<std::streamsize>(buf_.size()));
      put32(proto::checksum32(
          std::span<const std::uint8_t>(buf_.data(), buf_.size())));
      if (!out) throw Error("write failed for " + tmp);
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
      throw Error("cannot rename " + tmp + " to " + path);
    }
  }

 private:
  std::vector<std::uint8_t> buf_;
};

class Reader {
 public:
  explicit Reader(std::vector<std::uint8_t> payload)
      : buf_(std::move(payload)) {}

  /// Parses and verifies a checkpoint file; throws Error on a bad magic,
  /// version skew, truncation, or checksum mismatch.
  static Reader from_file(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    if (!in) throw Error("cannot open checkpoint " + path);
    std::vector<std::uint8_t> raw((std::istreambuf_iterator<char>(in)),
                                  std::istreambuf_iterator<char>());
    if (raw.size() < 20) throw Error("checkpoint " + path + " is truncated");
    const auto get32 = [&raw](std::size_t at) {
      std::uint32_t v = 0;
      for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(raw[at + i]) << (8 * i);
      return v;
    };
    const auto get64 = [&raw](std::size_t at) {
      std::uint64_t v = 0;
      for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(raw[at + i]) << (8 * i);
      return v;
    };
    if (get32(0) != kMagic) throw Error("checkpoint " + path + ": bad magic");
    if (get32(4) != kVersion) {
      throw Error("checkpoint " + path + ": format version " +
                  std::to_string(get32(4)) + " (expected " +
                  std::to_string(kVersion) + ")");
    }
    const std::uint64_t len = get64(8);
    if (raw.size() != 16 + len + 4) {
      throw Error("checkpoint " + path + " is truncated or has trailing data");
    }
    std::vector<std::uint8_t> payload(raw.begin() + 16,
                                      raw.begin() + 16 + static_cast<std::ptrdiff_t>(len));
    const std::uint32_t want = get32(16 + static_cast<std::size_t>(len));
    const std::uint32_t got = proto::checksum32(
        std::span<const std::uint8_t>(payload.data(), payload.size()));
    if (want != got) throw Error("checkpoint " + path + ": checksum mismatch");
    return Reader(std::move(payload));
  }

  std::uint8_t u8() {
    need(1);
    return buf_[pos_++];
  }
  bool b() { return u8() != 0; }
  std::uint32_t u32() {
    need(4);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(buf_[pos_ + i]) << (8 * i);
    pos_ += 4;
    return v;
  }
  std::uint64_t u64() {
    need(8);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(buf_[pos_ + i]) << (8 * i);
    pos_ += 8;
    return v;
  }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  double f64() { return std::bit_cast<double>(u64()); }
  std::string str() {
    const std::uint64_t n = u64();
    need(n);
    std::string s(buf_.begin() + static_cast<std::ptrdiff_t>(pos_),
                  buf_.begin() + static_cast<std::ptrdiff_t>(pos_ + n));
    pos_ += n;
    return s;
  }
  std::vector<std::uint8_t> bytes() {
    const std::uint64_t n = u64();
    need(n);
    std::vector<std::uint8_t> v(buf_.begin() + static_cast<std::ptrdiff_t>(pos_),
                                buf_.begin() + static_cast<std::ptrdiff_t>(pos_ + n));
    pos_ += n;
    return v;
  }
  void expect_mark(std::uint32_t label) {
    const std::uint32_t got = u32();
    const std::uint32_t want = 0x5ec70000u | (label & 0xffffu);
    if (got != want) {
      throw Error("checkpoint section marker mismatch (want " +
                  std::to_string(want) + ", got " + std::to_string(got) + ")");
    }
  }
  /// Reads a vector length and throws unless it is `want` (a per-node
  /// vector must cover exactly the node range).
  void expect_size(std::uint64_t want, const std::string& what) {
    const std::uint64_t got = u64();
    if (got != want) {
      throw Error("checkpoint " + what + " has length " + std::to_string(got) +
                  ", want " + std::to_string(want));
    }
  }
  bool at_end() const { return pos_ == buf_.size(); }
  void expect_end() const {
    if (!at_end()) throw Error("checkpoint has trailing bytes");
  }

 private:
  void need(std::uint64_t n) {
    if (pos_ + n > buf_.size()) throw Error("checkpoint payload truncated");
  }

  std::vector<std::uint8_t> buf_;
  std::size_t pos_ = 0;
};

}  // namespace mdr::ckpt
