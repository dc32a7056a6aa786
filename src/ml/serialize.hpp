/// \file serialize.hpp
/// The one on-disk container, ARTSCKP2, of a weights file (a model's
/// parameters) and of a pipeline checkpoint (core/checkpoint.hpp: the same
/// parameters, then the trainer state). The paper's workflow keeps all
/// *data* in memory, but model checkpoints are the one artifact written to
/// disk on demand ("File I/O can certainly be initiated when desired").
///
/// Layout (host-order integers: node-local state, not an interchange
/// format): "ARTSCKP2" | u32 version | parameters block | trainer-state
/// block (checkpoints only) | u32 CRC-32C of every preceding byte | u32
/// footer magic. The parameters block is u64 tensorCount | u64
/// totalElements, then per tensor u64 ndim | u64 dims[ndim] | f64
/// data[numel]. There is no kind word: each reader requires the body to
/// end where its own blocks do, so it rejects the other kind of file.
///
/// Writes are crash-safe (`<path>.tmp`, fsync, rename(2), directory
/// fsync). A read takes the file in one read, checks footer and CRC before
/// parsing, parses into staging and touches its target only once the
/// whole file validated: any defect throws CheckpointError and leaves the
/// target untouched.
#pragma once

#include <bit>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "ml/tensor.hpp"

namespace artsci::ml {

/// A container file could not be written, read or validated: missing,
/// truncated, torn, CRC mismatch, wrong magic or version, trailing bytes,
/// or contents that do not fit the restoring target.
class CheckpointError : public RuntimeError {
 public:
  using RuntimeError::RuntimeError;
};

/// Write `params` (shapes and values) to `path` as a weights file.
void saveParameters(const std::string& path,
                    const std::vector<Tensor>& params);

/// Load a weights file into `params`, which must match it in tensor count
/// and every shape. Throws CheckpointError on any defect, `params` intact.
void loadParameters(const std::string& path, std::vector<Tensor>& params);

/// Copy parameter values src -> dst (shape-checked, element-wise). The
/// in-memory sibling of save+load: used to clone trained weights into an
/// immutable serving snapshot without touching the filesystem.
void copyParameters(const std::vector<Tensor>& src, std::vector<Tensor>& dst);

/// Builds a container in memory, magic and version first, then the
/// caller's blocks, and writes it.
class ByteWriter {
 public:
  ByteWriter();

  void u64(std::uint64_t v) { raw(&v, sizeof v); }
  void i64(long v) { u64(static_cast<std::uint64_t>(v)); }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
  /// Length-prefixed values.
  void doubles(const std::vector<double>& v);
  /// The parameters block of `params`.
  void parameters(const std::vector<Tensor>& params);

  /// Append the CRC-32C and footer magic and write the container to
  /// `path` crash-safe; call once. The torn-write fault site "ckpt.write"
  /// cuts the tmp file short and throws fault::FaultInjectedError, leaving
  /// `path` as a crash would.
  void write(const std::string& path);

 private:
  void raw(const void* p, std::size_t n);

  std::vector<std::uint8_t> out_;
};

/// Bounds-checked cursor over the body of a validated container file.
/// Every read past the body's end, and every fail(), throws
/// CheckpointError naming the file.
class ByteReader {
 public:
  /// Read the file at `path` and check its footer, CRC-32C, magic and
  /// version; the cursor then stands at the parameters block.
  explicit ByteReader(const std::string& path);

  std::uint64_t u64() { std::uint64_t v; raw(&v, sizeof v); return v; }
  long i64() { return static_cast<long>(u64()); }
  double f64() { return std::bit_cast<double>(u64()); }
  /// Length-prefixed values; the length is checked against the bytes left
  /// before anything is allocated.
  std::vector<double> doubles();
  /// Check the parameters block against `like` (tensor count, element
  /// count, every shape) and step past it; returns where each tensor's
  /// values start, for values().
  std::vector<std::size_t> parameters(const std::vector<Tensor>& like);
  /// Copy the `n` values that start at `at` into `dst`.
  void values(std::size_t at, Real* dst, std::size_t n) const;

  /// Throw unless the whole body has been read.
  void expectEnd() const;
  [[noreturn]] void fail(const std::string& what) const;

 private:
  void raw(void* dst, std::size_t n);

  std::string path_;
  std::unique_ptr<std::uint8_t[]> bytes_;  ///< the file, not zero-filled
  std::size_t off_ = 0;
  std::size_t end_ = 0;  ///< where the body ends and the CRC begins
};

}  // namespace artsci::ml
