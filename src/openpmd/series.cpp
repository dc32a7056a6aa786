#include "openpmd/series.hpp"

#include "openpmd/backends.hpp"

namespace artsci::openpmd {

const std::vector<double>& IterationData::at(const std::string& path) const {
  auto it = data.find(path);
  ARTSCI_CHECK_MSG(it != data.end(), "iteration has no record '" << path
                                                                 << "'");
  return it->second;
}

double IterationData::attribute(const std::string& name,
                                double fallback) const {
  auto it = numericAttributes.find(name);
  return it == numericAttributes.end() ? fallback : it->second;
}

// --- RecordComponent --------------------------------------------------------

RecordComponent::RecordComponent(WriteIteration& it, std::string path)
    : iteration_(it), path_(std::move(path)) {}

RecordComponent& RecordComponent::storeChunk(std::vector<double> data,
                                             std::vector<long> offset,
                                             std::vector<long> extent,
                                             std::vector<long> globalExtent) {
  ARTSCI_CHECK_MSG(iteration_.open_, "storeChunk on closed iteration");
  iteration_.backend_.writeChunk(path_, globalExtent, offset, extent,
                                 std::move(data));
  return *this;
}

RecordComponent& RecordComponent::store(std::vector<double> data,
                                        std::vector<long> globalExtent) {
  std::vector<long> offset(globalExtent.size(), 0);
  return storeChunk(std::move(data), offset, globalExtent, globalExtent);
}

RecordComponent& RecordComponent::setUnitSI(double unitSI) {
  iteration_.backend_.writeAttribute(path_ + ".unitSI", unitSI);
  return *this;
}

// --- Record -----------------------------------------------------------------

Record::Record(WriteIteration& it, std::string path)
    : iteration_(it), path_(std::move(path)) {}

RecordComponent Record::component(const std::string& name) {
  return RecordComponent(iteration_, path_ + "/" + name);
}

RecordComponent Record::scalar() {
  // openPMD scalar-record convention: the record itself is the component.
  return RecordComponent(iteration_, path_);
}

Record& Record::setUnitDimension(const UnitDimension& dims) {
  for (std::size_t i = 0; i < dims.size(); ++i)
    iteration_.backend_.writeAttribute(
        path_ + ".unitDimension." + std::to_string(i), dims[i]);
  return *this;
}

// --- Mesh / ParticleSpecies -------------------------------------------------

Mesh::Mesh(WriteIteration& it, std::string path)
    : iteration_(it), path_(std::move(path)) {}

RecordComponent Mesh::component(const std::string& name) {
  return RecordComponent(iteration_, path_ + "/" + name);
}

RecordComponent Mesh::scalar() {
  return RecordComponent(iteration_, path_);
}

Mesh& Mesh::setUnitDimension(const UnitDimension& dims) {
  for (std::size_t i = 0; i < dims.size(); ++i)
    iteration_.backend_.writeAttribute(
        path_ + ".unitDimension." + std::to_string(i), dims[i]);
  return *this;
}

ParticleSpecies::ParticleSpecies(WriteIteration& it, std::string path)
    : iteration_(it), path_(std::move(path)) {}

Record ParticleSpecies::record(const std::string& name) {
  return Record(iteration_, path_ + "/" + name);
}

// --- WriteIteration -----------------------------------------------------------

WriteIteration::WriteIteration(StreamBackend& backend, long index)
    : backend_(backend), index_(index) {
  backend_.openIteration(index);
}

Mesh WriteIteration::mesh(const std::string& name) {
  return Mesh(*this, "meshes/" + name);
}

ParticleSpecies WriteIteration::particles(const std::string& name) {
  return ParticleSpecies(*this, "particles/" + name);
}

WriteIteration& WriteIteration::setAttribute(const std::string& name,
                                             double value) {
  backend_.writeAttribute(name, value);
  return *this;
}

WriteIteration& WriteIteration::setAttribute(const std::string& name,
                                             const std::string& value) {
  backend_.writeAttribute(name, value);
  return *this;
}

WriteIteration& WriteIteration::setTime(double time, double dt) {
  setAttribute("time", time);
  setAttribute("dt", dt);
  return *this;
}

void WriteIteration::close() {
  ARTSCI_CHECK_MSG(open_, "iteration closed twice");
  backend_.closeIteration();
  open_ = false;
}

// --- Series -------------------------------------------------------------------

Series::Series(std::string name, Access access,
               std::shared_ptr<StreamBackend> backend)
    : name_(std::move(name)), access_(access), backend_(std::move(backend)) {
  ARTSCI_EXPECTS(backend_ != nullptr);
}

Series::~Series() {
  if (!closed_) {
    try {
      close();
    } catch (...) {
      // Destructors must not throw; close() errors surface on explicit use.
    }
  }
}

WriteIteration Series::writeIteration(long index) {
  ARTSCI_EXPECTS_MSG(access_ == Access::kCreate,
                     "writeIteration on a read-only series");
  return WriteIteration(*backend_, index);
}

std::optional<IterationData> Series::readNextIteration() {
  ARTSCI_EXPECTS_MSG(access_ == Access::kRead,
                     "readNextIteration on a write series");
  return backend_->readNextIteration();
}

void Series::close() {
  if (!closed_) {
    backend_->closeSeries();
    closed_ = true;
  }
}

}  // namespace artsci::openpmd
