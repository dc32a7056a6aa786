/// \file serialize.hpp
/// Binary checkpointing of parameter lists. The paper's workflow keeps all
/// *data* in memory, but model checkpoints are the one artifact written to
/// disk on demand ("File I/O can certainly be initiated when desired").
///
/// On-disk format (version 2, magic "ARTSCIP2"):
///   u64 magic | u64 version | u64 tensorCount | u64 totalElements
///   then per tensor: u64 ndim | u64 dims[ndim] | f64 data[numel]
/// Files in the original unversioned format (magic "ARTSCIP1", no
/// version/totalElements words) are rejected: they predate config-derived
/// INN permutations, so their weights would pair with permutations this
/// build does not draw (the ones they trained under came from the
/// weight-init RNG and are not recorded in the file), and the restored
/// network would predict silently different values.
#pragma once

#include <string>
#include <vector>

#include "ml/tensor.hpp"

namespace artsci::ml {

/// Write tensors (shapes + data) to `path`. Overwrites existing files.
/// Always writes the current (version 2) format.
void saveParameters(const std::string& path,
                    const std::vector<Tensor>& params);

/// Load tensors saved by saveParameters into `params`. The checkpoint must
/// be an ARTSCIP2 file holding exactly params.size() tensors whose shapes
/// match element-wise; legacy ARTSCIP1, truncated, corrupt, or mismatched
/// files fail with a ContractError that names the problem instead of
/// reading garbage.
void loadParameters(const std::string& path, std::vector<Tensor>& params);

/// Copy parameter values src -> dst (shape-checked, element-wise). The
/// in-memory sibling of save+load: used to clone trained weights into an
/// immutable serving snapshot without touching the filesystem.
void copyParameters(const std::vector<Tensor>& src, std::vector<Tensor>& dst);

}  // namespace artsci::ml
