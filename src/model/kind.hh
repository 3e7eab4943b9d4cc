/**
 * @file
 * The memory models this library implements.
 */

#ifndef GAM_MODEL_KIND_HH
#define GAM_MODEL_KIND_HH

#include <optional>
#include <string>

namespace gam::model
{

/**
 * Memory-model identifiers.
 *
 * The GAM-family models differ only in how they order two loads for the
 * same address (Section III-E) and, in the simulator, whether load-load
 * forwarding is allowed:
 *
 *  - GAM0:      no same-address load-load ordering at all (corrected RMO).
 *  - GAM:       constraint SALdLd (consecutive same-address loads without
 *               an intervening same-address store are ordered).
 *  - ARM:       constraint SALdLdARM (same-address loads are ordered only
 *               when they do not read from the same store).
 *  - AlphaStar: GAM0 ordering; additionally the implementation may
 *               forward data between loads (simulator only; the paper's
 *               Alpha* has no axiomatic definition).
 *
 * SC, TSO and PerLocSC are reference points: SC/TSO for familiarity and
 * PerLocSC for the per-location SC property of Section III-E.
 */
enum class ModelKind {
    SC,
    TSO,
    GAM0,
    GAM,
    ARM,
    AlphaStar,
    PerLocSC,
};

/** Display name ("GAM0", "Alpha*", ...). */
std::string modelName(ModelKind kind);

/**
 * Inverse of modelName(); nullopt for unrecognised names.  The
 * recoverable lookup used by text frontends (litmus parser, CLIs).
 */
std::optional<ModelKind> modelFromName(const std::string &name);

/** True for models defined through the Definition 6 ppo construction. */
constexpr bool
isGamFamily(ModelKind kind)
{
    return kind == ModelKind::GAM0 || kind == ModelKind::GAM
        || kind == ModelKind::ARM || kind == ModelKind::AlphaStar;
}

/** Every ModelKind, in declaration order (frontend listings). */
constexpr ModelKind allModelKinds[] = {
    ModelKind::SC,  ModelKind::TSO,       ModelKind::GAM0,
    ModelKind::GAM, ModelKind::ARM,       ModelKind::AlphaStar,
    ModelKind::PerLocSC,
};

/** All models with an axiomatic definition in this library. */
constexpr ModelKind axiomaticModels[] = {
    ModelKind::SC,   ModelKind::TSO, ModelKind::GAM0,
    ModelKind::GAM,  ModelKind::ARM, ModelKind::PerLocSC,
};

} // namespace gam::model

#endif // GAM_MODEL_KIND_HH
