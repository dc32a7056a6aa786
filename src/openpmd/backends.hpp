/// \file backends.hpp
/// The openPMD backend of the paper's software stack (Fig 5):
/// StreamBackend maps iterations onto nanoSST steps, the ADIOS2-SST
/// in-transit path that never touches the filesystem.
#pragma once

#include <memory>

#include "openpmd/series.hpp"
#include "stream/sst.hpp"

namespace artsci::openpmd {

class StreamBackend {
 public:
  /// Writer-side backend for one producer rank.
  static std::shared_ptr<StreamBackend> forWriter(
      std::shared_ptr<stream::SstEngine> engine, std::size_t rank);
  /// Reader-side backend for one consumer rank; each iteration it reads
  /// holds every writer's blocks, assembled into global arrays.
  static std::shared_ptr<StreamBackend> forReader(
      std::shared_ptr<stream::SstEngine> engine, std::size_t rank);

  /// Begin the SST step of iteration `index`. The index travels with the
  /// step, and readNextIteration reports it; writers of one step must
  /// open the same index (a different one throws ContractError).
  void openIteration(long index);
  void writeChunk(const std::string& path,
                  const std::vector<long>& globalExtent,
                  const std::vector<long>& offset,
                  const std::vector<long>& extent,
                  std::vector<double> data);
  void writeAttribute(const std::string& name, double value);
  void writeAttribute(const std::string& name, const std::string& value);
  void closeIteration();
  void closeSeries();
  std::optional<IterationData> readNextIteration();

 private:
  StreamBackend(std::shared_ptr<stream::SstEngine> engine, std::size_t rank,
                bool isWriter);
  std::shared_ptr<stream::SstEngine> engine_;
  std::unique_ptr<stream::SstEngine::Writer> writer_;
  std::unique_ptr<stream::SstEngine::Reader> reader_;
};

}  // namespace artsci::openpmd
