// SSD model configuration, calibrated to the devices the paper used.
//
// The default parameter set targets the Samsung DCT983 960GB numbers the
// paper reports (4 KB random read ~1.6 GB/s, 128 KB read ~3.2 GB/s, clean
// sequential write ~1.0 GB/s, fragmented 4 KB random write ~180 MB/s,
// worst-case write cost ~9). `IntelP3600Like()` is the §5.8 generalization
// device (2-bit MLC: lower large-read bandwidth, higher random write).
#pragma once

#include <cstdint>

#include "common/time.h"

namespace gimbal::ssd {

struct SsdConfig {
  // --- Geometry -----------------------------------------------------------
  int channels = 8;
  int dies_per_channel = 4;             // 32 dies total
  uint32_t page_bytes = 4096;           // logical & physical page size
  uint32_t pages_per_block = 128;       // 512 KiB blocks
  uint64_t logical_bytes = 512ull << 20;  // scaled-down logical capacity
  double over_provisioning = 0.12;      // physical = logical * (1 + OP)

  // --- NAND timing ---------------------------------------------------------
  Tick read_latency = Microseconds(65);     // sense, per read unit
  Tick program_latency = Microseconds(500); // per multi-plane program unit
  Tick erase_latency = Milliseconds(3);
  // Erases execute in suspendable slices so queued host reads are not
  // blocked for a full block erase (real controllers implement
  // erase/program suspension for exactly this reason).
  int erase_slices = 4;
  uint32_t read_unit_pages = 4;         // max pages per sense (multi-plane)
  uint32_t program_unit_pages = 4;      // pages per program (16 KiB)

  // --- Data path -----------------------------------------------------------
  double channel_bw = 400e6;            // bytes/sec per channel
  Tick cmd_cost = Nanoseconds(2400);    // controller per-command processing
  double dram_bw = 6e9;                 // write-buffer copy bandwidth
  Tick dram_latency = Microseconds(8);  // buffer-hit read / write-ack latency
  // Sustained-write buffer (capacitor-backed region of the DRAM). Small on
  // purpose: datacenter SSDs only ack writes from a power-safe area, so a
  // sustained writer quickly sees NAND-bound latency — the signal Gimbal's
  // write-cost estimator keys off (§3.4).
  uint64_t write_buffer_bytes = 4ull << 20;

  // --- Garbage collection ---------------------------------------------------
  // Watermarks are deliberately small: physical_blocks() adds
  // gc_high_watermark blocks per die *on top of* the over-provisioned
  // capacity, so at GC steady state (free ~ high watermark) the occupied
  // blocks hold logical/(logical*(1+OP)) ~ 0.89 valid data — the regime
  // that yields the paper's fragmented write-amplification of ~4-5.
  int gc_low_watermark = 3;    // free blocks per die that trigger GC
  int gc_high_watermark = 4;   // GC runs until this many free blocks
  int host_write_reserve = 2;  // host drain stalls at/below this many free

  // Nominal program drain bandwidth (bytes/sec) with all dies streaming —
  // used for the write buffer's progressive admission backpressure.
  double nominal_drain_bps() const {
    return static_cast<double>(dies()) * program_unit_pages * page_bytes *
           kNsPerSec / static_cast<double>(program_latency);
  }

  // Derived quantities.
  int dies() const { return channels * dies_per_channel; }
  uint64_t block_bytes() const {
    return static_cast<uint64_t>(pages_per_block) * page_bytes;
  }
  uint32_t logical_pages() const {
    return static_cast<uint32_t>(logical_bytes / page_bytes);
  }
  uint32_t physical_blocks() const {
    double phys = static_cast<double>(logical_bytes) * (1.0 + over_provisioning);
    uint32_t blocks = static_cast<uint32_t>(phys / block_bytes());
    // Round up to a whole number of blocks per die, plus GC headroom.
    uint32_t per_die = (blocks + dies() - 1) / dies() + gc_high_watermark;
    return per_die * dies();
  }

  // Field by field, so a memo keyed on the config (Ssd's fragmented
  // images) cannot miss a field added later.
  bool operator==(const SsdConfig&) const = default;

  static SsdConfig SamsungDct983Like() { return SsdConfig{}; }

  static SsdConfig IntelP3600Like() {
    SsdConfig c;
    // 2-bit MLC: faster programs (lower write cost), slower large reads.
    c.channel_bw = 260e6;                    // ~2.1 GB/s 128K reads
    c.program_latency = Microseconds(380);
    c.read_latency = Microseconds(85);
    c.over_provisioning = 0.25;              // DC-class OP, higher frag write
    c.cmd_cost = Nanoseconds(2900);
    return c;
  }
};

}  // namespace gimbal::ssd
