#pragma once
/// \file lz.hpp
/// Block LZ compressor/decompressor (LZ4-style token format with a hash-table
/// greedy match finder). This is the container codec for the synthetic
/// corpus: it substitutes for gzip on ClueWeb files so the parser pipeline
/// exercises the same read-compressed-then-decompress-in-memory path whose
/// timing trade-offs §IV.A analyzes (1.6 s read + 3.2 s decompress per 1 GB
/// file on the paper's hardware).
///
/// Frame layout: [u32 magic][u64 raw_size] then per block:
/// [u32 raw_len][u32 comp_len][u32 crc32 of raw][payload]. comp_len == 0
/// marks a stored (incompressible) block whose payload is the raw bytes.

#include <cstdint>
#include <vector>

#include "util/error.hpp"

namespace hetindex {

/// Compresses `input` into a self-describing frame.
std::vector<std::uint8_t> lz_compress(const std::uint8_t* input, std::size_t size);
std::vector<std::uint8_t> lz_compress(const std::vector<std::uint8_t>& input);

/// Decompresses a frame produced by lz_compress; kCorrupt on any
/// magic/CRC/bounds mismatch, whatever the bytes.
Expected<std::vector<std::uint8_t>> try_lz_decompress(const std::uint8_t* input,
                                                      std::size_t size);

/// try_lz_decompress for trusted frames: hard-fails on corruption.
std::vector<std::uint8_t> lz_decompress(const std::uint8_t* input, std::size_t size);
std::vector<std::uint8_t> lz_decompress(const std::vector<std::uint8_t>& input);

/// Raw size recorded in a frame header without decompressing.
std::uint64_t lz_raw_size(const std::uint8_t* input, std::size_t size);

/// Decompresses only the leading whole blocks of a frame until at least
/// `max_raw` bytes are produced (or the frame ends). Blocks are 1 MiB, so
/// this is the honest implementation of "extract a sample, e.g. 1MB out of
/// every 1GB" (§III.E) without inflating the file.
std::vector<std::uint8_t> lz_decompress_prefix(const std::uint8_t* input, std::size_t size,
                                               std::uint64_t max_raw);

}  // namespace hetindex
