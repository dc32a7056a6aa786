/// \file series.hpp
/// A compact openPMD-flavoured data model (the paper's Fig 5 layering):
/// the application describes particle-mesh data through the standard's
/// hierarchy — Series > Iteration > Meshes / ParticleSpecies > Records >
/// RecordComponents with unitSI / unitDimension attributes — and a
/// StreamBackend (backends.hpp) carries the bytes: each iteration is one
/// nanoSST step, so producer and consumer share the standard's data model
/// while no file sits between them.
#pragma once

#include <array>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/error.hpp"

namespace artsci::openpmd {

enum class Access { kCreate, kRead };

/// The seven SI base-dimension exponents (L, M, T, I, theta, N, J) as the
/// openPMD standard defines unitDimension.
using UnitDimension = std::array<double, 7>;

inline constexpr UnitDimension kDimensionless{0, 0, 0, 0, 0, 0, 0};
inline constexpr UnitDimension kLength{1, 0, 0, 0, 0, 0, 0};
inline constexpr UnitDimension kMomentum{1, 1, -1, 0, 0, 0, 0};
inline constexpr UnitDimension kTime{0, 0, 1, 0, 0, 0, 0};

/// One assembled iteration on the read side.
struct IterationData {
  long index = 0;
  std::map<std::string, std::vector<double>> data;     ///< by record path
  std::map<std::string, std::vector<long>> extents;    ///< global extents
  std::map<std::string, double> numericAttributes;
  std::map<std::string, std::string> stringAttributes;

  const std::vector<double>& at(const std::string& path) const;
  double attribute(const std::string& name, double fallback = 0.0) const;
};

class StreamBackend;
class WriteIteration;

/// A pending record component within an open iteration.
class RecordComponent {
 public:
  /// Store one chunk (this rank's block) of the globally `globalExtent`-
  /// sized dataset.
  RecordComponent& storeChunk(std::vector<double> data,
                              std::vector<long> offset,
                              std::vector<long> extent,
                              std::vector<long> globalExtent);
  /// Whole-dataset convenience (offset 0, extent == global).
  RecordComponent& store(std::vector<double> data,
                         std::vector<long> globalExtent);
  RecordComponent& setUnitSI(double unitSI);

 private:
  friend class WriteIteration;
  friend class Record;
  friend class Mesh;
  RecordComponent(WriteIteration& it, std::string path);
  WriteIteration& iteration_;
  std::string path_;
};

/// A record (grouping components x/y/z or a scalar) with unitDimension.
class Record {
 public:
  RecordComponent component(const std::string& name);
  /// Scalar records use the openPMD scalar-component convention.
  RecordComponent scalar();
  Record& setUnitDimension(const UnitDimension& dims);

 private:
  friend class WriteIteration;
  friend class ParticleSpecies;
  Record(WriteIteration& it, std::string path);
  WriteIteration& iteration_;
  std::string path_;
};

/// Mesh and particle-species handles produce records under the standard
/// openPMD base paths.
class Mesh {
 public:
  RecordComponent component(const std::string& name);
  RecordComponent scalar();
  Mesh& setUnitDimension(const UnitDimension& dims);

 private:
  friend class WriteIteration;
  Mesh(WriteIteration& it, std::string path);
  WriteIteration& iteration_;
  std::string path_;
};

class ParticleSpecies {
 public:
  Record record(const std::string& name);

 private:
  friend class WriteIteration;
  ParticleSpecies(WriteIteration& it, std::string path);
  WriteIteration& iteration_;
  std::string path_;
};

class Series;

/// An open, writable iteration. close() publishes its SST step.
class WriteIteration {
 public:
  Mesh mesh(const std::string& name);
  ParticleSpecies particles(const std::string& name);
  WriteIteration& setAttribute(const std::string& name, double value);
  WriteIteration& setAttribute(const std::string& name,
                               const std::string& value);
  WriteIteration& setTime(double time, double dt);
  void close();

  long index() const { return index_; }

 private:
  friend class Series;
  friend class RecordComponent;
  friend class Record;
  friend class Mesh;
  WriteIteration(StreamBackend& backend, long index);
  StreamBackend& backend_;
  long index_;
  bool open_ = true;
};

/// The root object, as in openPMD-api.
class Series {
 public:
  Series(std::string name, Access access,
         std::shared_ptr<StreamBackend> backend);
  ~Series();

  Series(const Series&) = delete;
  Series& operator=(const Series&) = delete;

  /// Open iteration `index` for writing (Access::kCreate only).
  WriteIteration writeIteration(long index);

  /// Next iteration in stream order; nullopt at end (kRead only).
  std::optional<IterationData> readNextIteration();

  /// Finish; a writer signals end-of-stream to its readers.
  void close();

  const std::string& name() const { return name_; }

 private:
  std::string name_;
  Access access_;
  std::shared_ptr<StreamBackend> backend_;
  bool closed_ = false;
};

}  // namespace artsci::openpmd
