#include "model/engine.hh"

namespace gam::model
{

std::string
engineName(Engine engine)
{
    switch (engine) {
      case Engine::Axiomatic: return "axiomatic";
      case Engine::Operational: return "operational";
      case Engine::Cat: return "cat";
    }
    return "?";
}

std::optional<Engine>
engineFromName(const std::string &name)
{
    for (Engine engine : allEngines) {
        if (engineName(engine) == name)
            return engine;
    }
    return std::nullopt;
}

} // namespace gam::model
