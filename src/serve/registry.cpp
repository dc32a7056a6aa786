#include "serve/registry.hpp"

#include <utility>

#include "ml/serialize.hpp"

namespace artsci::serve {

std::uint64_t ModelRegistry::publish(
    std::shared_ptr<const core::ArtificialScientistModel> model,
    std::string tag) {
  ARTSCI_EXPECTS_MSG(model != nullptr, "publish() of a null model");
  auto snap = std::make_shared<ModelSnapshot>();
  snap->model = std::move(model);
  snap->tag = std::move(tag);
  // Declared before the lock so the replaced snapshot, possibly the last
  // reference to a whole model, is freed after the lock is released.
  std::shared_ptr<const ModelSnapshot> replaced;
  std::lock_guard<std::mutex> lock(mutex_);
  // Numbered and installed under one lock: with concurrent publishers the
  // installed snapshot never moves backwards in version.
  snap->version = ++versions_;
  replaced = std::exchange(current_, snap);
  return snap->version;
}

std::shared_ptr<const ModelSnapshot> ModelRegistry::current() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return current_;
}

std::uint64_t ModelRegistry::version() const {
  const auto snap = current();
  return snap ? snap->version : 0;
}

std::uint64_t publishCheckpoint(ModelRegistry& registry,
                                core::ArtificialScientistModel::Config cfg,
                                const std::string& path, std::string tag) {
  Rng initRng(1);
  auto model =
      std::make_shared<core::ArtificialScientistModel>(std::move(cfg), initRng);
  auto params = model->parameters();
  ml::loadParameters(path, params);
  for (auto& p : params) p.setRequiresGrad(false);
  if (tag.empty()) tag = path;
  return registry.publish(std::move(model), std::move(tag));
}

}  // namespace artsci::serve
