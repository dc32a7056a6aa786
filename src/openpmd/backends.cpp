#include "openpmd/backends.hpp"

namespace artsci::openpmd {

namespace {
/// The step attribute that carries the openPMD iteration index through the
/// stream, named as in openPMD's variable-based encoding; no record or
/// user attribute path starts with '/'. A double holds every index below
/// 2^53 exactly.
constexpr const char* kIterationAttribute = "/data/snapshot";
}  // namespace

StreamBackend::StreamBackend(std::shared_ptr<stream::SstEngine> engine,
                             std::size_t rank, bool isWriter)
    : engine_(std::move(engine)) {
  ARTSCI_EXPECTS(engine_ != nullptr);
  if (isWriter) {
    writer_ = std::make_unique<stream::SstEngine::Writer>(
        engine_->makeWriter(rank));
  } else {
    reader_ = std::make_unique<stream::SstEngine::Reader>(
        engine_->makeReader(rank));
  }
}

std::shared_ptr<StreamBackend> StreamBackend::forWriter(
    std::shared_ptr<stream::SstEngine> engine, std::size_t rank) {
  return std::shared_ptr<StreamBackend>(
      new StreamBackend(std::move(engine), rank, true));
}

std::shared_ptr<StreamBackend> StreamBackend::forReader(
    std::shared_ptr<stream::SstEngine> engine, std::size_t rank) {
  return std::shared_ptr<StreamBackend>(
      new StreamBackend(std::move(engine), rank, false));
}

void StreamBackend::openIteration(long index) {
  ARTSCI_CHECK_MSG(writer_, "openIteration on a reader backend");
  writer_->beginStep();
  // Step attributes must agree across the writer group, so ranks that
  // open different iterations for one step throw here.
  writer_->setAttribute(kIterationAttribute, static_cast<double>(index));
}

void StreamBackend::writeChunk(const std::string& path,
                               const std::vector<long>& globalExtent,
                               const std::vector<long>& offset,
                               const std::vector<long>& extent,
                               std::vector<double> data) {
  ARTSCI_CHECK(writer_);
  stream::Block block;
  block.offset = offset;
  block.extent = extent;
  block.payload = std::move(data);
  writer_->put(path, std::move(block), globalExtent);
}

void StreamBackend::writeAttribute(const std::string& name, double value) {
  ARTSCI_CHECK(writer_);
  writer_->setAttribute(name, value);
}

void StreamBackend::writeAttribute(const std::string& name,
                                   const std::string& value) {
  ARTSCI_CHECK(writer_);
  writer_->setAttribute(name, value);
}

void StreamBackend::closeIteration() {
  ARTSCI_CHECK(writer_);
  writer_->endStep();
}

void StreamBackend::closeSeries() {
  if (writer_) writer_->close();
}

std::optional<IterationData> StreamBackend::readNextIteration() {
  ARTSCI_CHECK_MSG(reader_, "readNextIteration on a writer backend");
  auto step = reader_->beginStep();
  if (!step) return std::nullopt;
  IterationData out;
  out.numericAttributes = step->numericAttributes;
  const auto index = out.numericAttributes.find(kIterationAttribute);
  ARTSCI_CHECK_MSG(index != out.numericAttributes.end(),
                   "stream step " << step->step
                                  << " carries no openPMD iteration index");
  out.index = static_cast<long>(index->second);
  out.numericAttributes.erase(index);
  for (const auto& variable : step->variables) {
    const std::string& name = variable.first;
    out.data[name] = step->assemble(name);
    out.extents[name] = step->globalExtents.at(name);
  }
  out.stringAttributes = step->stringAttributes;
  reader_->endStep();
  return out;
}

}  // namespace artsci::openpmd
