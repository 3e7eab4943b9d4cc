#include "cat/compile.hh"

#include <algorithm>
#include <map>
#include <sstream>
#include <utility>

#include "base/logging.hh"
#include "cat/exec.hh"
#include "cat/rel.hh"
#include "obs/registry.hh"
#include "obs/trace.hh"

namespace gam::cat
{

using axiomatic::CandidateExecution;

// ----------------------------------------------------- pretty printer

namespace
{

bool
isBinary(const Expr &e)
{
    switch (e.kind) {
      case Expr::Kind::Union:
      case Expr::Kind::Seq:
      case Expr::Kind::Inter:
      case Expr::Kind::Diff:
      case Expr::Kind::Product:
        return true;
      default:
        return false;
    }
}

/** Render @p e, parenthesized when nested under @p parent's kind. */
std::string
renderExpr(const Expr &e, const Expr *parent)
{
    const auto paren = [&](const std::string &s) {
        if (parent != nullptr && isBinary(e) && parent->kind != e.kind)
            return "(" + s + ")";
        return s;
    };
    switch (e.kind) {
      case Expr::Kind::Name:
        return e.name;
      case Expr::Kind::EmptyRel:
        return "0";
      case Expr::Kind::Union:
        return paren(renderExpr(*e.a, &e) + " | " + renderExpr(*e.b, &e));
      case Expr::Kind::Seq:
        return paren(renderExpr(*e.a, &e) + "; " + renderExpr(*e.b, &e));
      case Expr::Kind::Inter:
        return paren(renderExpr(*e.a, &e) + " & " + renderExpr(*e.b, &e));
      case Expr::Kind::Diff:
        return paren(renderExpr(*e.a, &e) + " \\ " + renderExpr(*e.b, &e));
      case Expr::Kind::Product:
        return paren(renderExpr(*e.a, &e) + " * " + renderExpr(*e.b, &e));
      case Expr::Kind::Compl:
        return "~" + renderExpr(*e.a, &e);
      case Expr::Kind::Plus:
        return renderExpr(*e.a, &e) + "+";
      case Expr::Kind::Star:
        return renderExpr(*e.a, &e) + "*";
      case Expr::Kind::Inverse:
        return renderExpr(*e.a, &e) + "^-1";
      case Expr::Kind::Diag:
        return "[" + renderExpr(*e.a, nullptr) + "]";
    }
    panic("cat compile: bad expression kind");
}

const char *
polarityName(Polarity p)
{
    switch (p) {
      case Polarity::Independent: return "independent";
      case Polarity::Monotone: return "monotone";
      case Polarity::NonMonotone: return "non-monotone";
    }
    panic("cat compile: bad polarity");
}

} // anonymous namespace

std::string
exprToString(const Expr &e)
{
    // A unary operand that is itself binary still needs parentheses;
    // renderExpr handles that via the parent pointer, so the top level
    // passes none.
    return renderExpr(e, nullptr);
}

// ------------------------------------------------------- compilation

namespace
{

/** Builds one CompiledPlan; all state dies with the builder. */
struct PlanBuilder
{
    const CatModel &model;
    CompiledPlan plan;
    std::vector<const Binding *> bindingOfSlot;
    /** Does the slot belong to a real recursive SCC? */
    std::vector<bool> slotFixpoint;

    explicit PlanBuilder(const CatModel &m) : model(m)
    {
        plan.model = &m;
        bindingOfSlot.assign(size_t(m.slotCount), nullptr);
        slotFixpoint.assign(size_t(m.slotCount), false);
        for (const Stmt &stmt : m.statements)
            for (const Binding &b : stmt.bindings)
                bindingOfSlot[size_t(b.slot)] = &b;
    }

    void
    run()
    {
        computeLiveness();
        stratify();
        classifyAxioms();
        collectFolds();
        plan.totalSlots =
            model.slotCount + int(plan.foldExprs.size());
        plan.fullyIncremental = std::all_of(
            plan.axioms.begin(), plan.axioms.end(),
            [](const CompiledAxiom &ax) {
                return ax.pass == CompiledAxiom::Pass::Stable
                    || ax.pass == CompiledAxiom::Pass::FusedAcyclic
                    || ax.pass == CompiledAxiom::Pass::EdgeGuard;
            });
    }

    // ---- liveness: slots an axiom transitively references ----

    void
    markLive(const Expr &e)
    {
        if (e.kind == Expr::Kind::Name && e.slot >= 0
            && !plan.slotLive[size_t(e.slot)]) {
            plan.slotLive[size_t(e.slot)] = true;
            markLive(*bindingOfSlot[size_t(e.slot)]->body);
            // A recursive group is evaluated as a whole: one live
            // member drags its SCC (refined later) -- conservatively,
            // its statement group -- in.
            for (const Stmt &stmt : model.statements) {
                if (stmt.kind != Stmt::Kind::LetRec)
                    continue;
                const bool hit = std::any_of(
                    stmt.bindings.begin(), stmt.bindings.end(),
                    [&](const Binding &b) { return b.slot == e.slot; });
                if (!hit)
                    continue;
                for (const Binding &b : stmt.bindings)
                    if (!plan.slotLive[size_t(b.slot)]) {
                        plan.slotLive[size_t(b.slot)] = true;
                        markLive(*b.body);
                    }
            }
        }
        if (e.a)
            markLive(*e.a);
        if (e.b)
            markLive(*e.b);
    }

    void
    computeLiveness()
    {
        plan.slotLive.assign(size_t(model.slotCount), false);
        for (const Stmt &stmt : model.statements)
            if (stmt.check)
                markLive(*stmt.check);
    }

    // ---- stratification + SCC-refined polarity ----

    /** Tarjan SCC over one `let rec` group; SCCs in dependency order. */
    std::vector<std::vector<const Binding *>>
    groupSccs(const std::vector<Binding> &group)
    {
        const size_t m = group.size();
        std::map<int, size_t> memberOfSlot;
        for (size_t i = 0; i < m; ++i)
            memberOfSlot[group[i].slot] = i;

        std::vector<std::vector<size_t>> adj(m);
        for (size_t i = 0; i < m; ++i) {
            std::vector<int> refs;
            collectSlots(*group[i].body, refs);
            for (int s : refs)
                if (auto it = memberOfSlot.find(s);
                    it != memberOfSlot.end())
                    adj[i].push_back(it->second);
        }

        std::vector<int> index(m, -1), low(m, 0);
        std::vector<bool> onStack(m, false);
        std::vector<size_t> stack;
        int next = 0;
        std::vector<std::vector<const Binding *>> sccs;

        // Tarjan pops each SCC only after all SCCs it depends on, so
        // the emission order is the evaluation order.
        auto strongconnect = [&](auto &&self, size_t u) -> void {
            index[u] = low[u] = next++;
            stack.push_back(u);
            onStack[u] = true;
            for (size_t w : adj[u]) {
                if (index[w] < 0) {
                    self(self, w);
                    low[u] = std::min(low[u], low[w]);
                } else if (onStack[w]) {
                    low[u] = std::min(low[u], index[w]);
                }
            }
            if (low[u] == index[u]) {
                std::vector<const Binding *> scc;
                size_t w;
                do {
                    w = stack.back();
                    stack.pop_back();
                    onStack[w] = false;
                    scc.push_back(&group[w]);
                } while (w != u);
                // Definition order within the SCC (stable iteration).
                std::sort(scc.begin(), scc.end(),
                          [](const Binding *a, const Binding *b) {
                              return a->slot < b->slot;
                          });
                sccs.push_back(std::move(scc));
            }
        };
        for (size_t u = 0; u < m; ++u)
            if (index[u] < 0)
                strongconnect(strongconnect, u);
        return sccs;
    }

    static void
    collectSlots(const Expr &e, std::vector<int> &out)
    {
        if (e.kind == Expr::Kind::Name && e.slot >= 0)
            out.push_back(e.slot);
        if (e.a)
            collectSlots(*e.a, out);
        if (e.b)
            collectSlots(*e.b, out);
    }

    static bool
    referencesSlot(const Expr &e, int slot)
    {
        if (e.kind == Expr::Kind::Name && e.slot == slot)
            return true;
        return (e.a && referencesSlot(*e.a, slot))
            || (e.b && referencesSlot(*e.b, slot));
    }

    void
    addStratum(std::vector<const Binding *> bindings, bool fixpoint)
    {
        // Polarity first (dead bindings too: cheap, and keeps every
        // slot lookup well-defined), stratum only when live.
        if (!fixpoint) {
            for (const Binding *b : bindings)
                plan.slotPolarity[size_t(b->slot)] =
                    exprPolarity(*b->body, plan.slotPolarity);
        } else {
            // Members start Independent; exprPolarity is monotone in
            // the slot polarities, so iterating to a fixpoint refines
            // the parser's group-coarse taint to this SCC only.
            bool changed = true;
            while (changed) {
                changed = false;
                for (const Binding *b : bindings) {
                    const Polarity p =
                        exprPolarity(*b->body, plan.slotPolarity);
                    if (p > plan.slotPolarity[size_t(b->slot)]) {
                        plan.slotPolarity[size_t(b->slot)] = p;
                        changed = true;
                    }
                }
            }
        }
        for (const Binding *b : bindings)
            slotFixpoint[size_t(b->slot)] = fixpoint;

        const bool live = std::any_of(
            bindings.begin(), bindings.end(),
            [&](const Binding *b) {
                return plan.slotLive[size_t(b->slot)];
            });
        if (!live)
            return;
        Stratum s;
        s.bindings = std::move(bindings);
        s.fixpoint = fixpoint;
        s.polarity = Polarity::Independent;
        for (const Binding *b : s.bindings)
            s.polarity = std::max(
                s.polarity, plan.slotPolarity[size_t(b->slot)]);
        plan.strata.push_back(std::move(s));
    }

    void
    stratify()
    {
        plan.slotPolarity.assign(size_t(model.slotCount),
                                 Polarity::Independent);
        for (const Stmt &stmt : model.statements) {
            switch (stmt.kind) {
              case Stmt::Kind::Let:
                for (const Binding &b : stmt.bindings)
                    addStratum({&b}, /*fixpoint=*/false);
                break;
              case Stmt::Kind::LetRec:
                for (auto &scc : groupSccs(stmt.bindings)) {
                    const bool fixpoint = scc.size() > 1
                        || referencesSlot(*scc.front()->body,
                                          scc.front()->slot);
                    addStratum(std::move(scc), fixpoint);
                }
                break;
              default:
                break;
            }
        }
    }

    // ---- axiom classification ----

    /** The builtin @p e denotes, following non-recursive aliases. */
    std::optional<Builtin>
    bareBuiltin(const Expr &e) const
    {
        const Expr *cur = &e;
        for (int depth = 0; depth < 32; ++depth) {
            if (cur->kind != Expr::Kind::Name)
                return std::nullopt;
            if (cur->builtin.has_value())
                return cur->builtin;
            if (cur->slot < 0 || slotFixpoint[size_t(cur->slot)])
                return std::nullopt;
            cur = bindingOfSlot[size_t(cur->slot)]->body.get();
        }
        return std::nullopt;
    }

    /**
     * Resolve @p e through non-recursive let aliases so shape
     * matching sees the defining expression (`let lv = fr; po`
     * followed by `irreflexive lv` still guards).
     */
    const Expr *
    resolveShape(const Expr *e) const
    {
        for (int depth = 0; depth < 32; ++depth) {
            if (e->kind != Expr::Kind::Name || e->slot < 0
                || slotFixpoint[size_t(e->slot)])
                return e;
            e = bindingOfSlot[size_t(e->slot)]->body.get();
        }
        return e;
    }

    /**
     * Flatten @p e's union into parts, inlining co/fr-dependent
     * non-recursive names so a `let com = co | fr` style wrapper
     * still fuses.
     */
    void
    unionParts(const Expr &e, std::vector<const Expr *> &out) const
    {
        if (e.kind == Expr::Kind::Union) {
            unionParts(*e.a, out);
            unionParts(*e.b, out);
            return;
        }
        if (e.kind == Expr::Kind::Name && e.slot >= 0
            && plan.slotPolarity[size_t(e.slot)]
                   != Polarity::Independent
            && !slotFixpoint[size_t(e.slot)]) {
            unionParts(*bindingOfSlot[size_t(e.slot)]->body, out);
            return;
        }
        out.push_back(&e);
    }

    std::optional<CompiledAxiom::Operand>
    classifyOperand(const Expr &e) const
    {
        using Operand = CompiledAxiom::Operand;
        if (exprPolarity(e, plan.slotPolarity) == Polarity::Independent)
            return Operand{Operand::Kind::Const, &e};
        if (const auto b = bareBuiltin(e)) {
            if (*b == Builtin::Co)
                return Operand{Operand::Kind::Co, nullptr};
            if (*b == Builtin::Fr)
                return Operand{Operand::Kind::Fr, nullptr};
        }
        return std::nullopt;
    }

    CompiledAxiom
    classifyAxiom(const Stmt &stmt)
    {
        CompiledAxiom ax;
        ax.stmt = &stmt;
        ax.polarity = exprPolarity(*stmt.check, plan.slotPolarity);

        if (ax.polarity == Polarity::Independent) {
            ax.pass = CompiledAxiom::Pass::Stable;
            return ax;
        }

        const Expr *shape = resolveShape(stmt.check.get());

        if (stmt.kind == Stmt::Kind::Acyclic
            && ax.polarity == Polarity::Monotone) {
            std::vector<const Expr *> parts;
            unionParts(*shape, parts);
            bool fusible = true;
            for (const Expr *part : parts) {
                if (exprPolarity(*part, plan.slotPolarity)
                    == Polarity::Independent) {
                    ax.constParts.push_back(part);
                } else if (bareBuiltin(*part) == Builtin::Co) {
                    ax.usesCo = true;
                } else if (bareBuiltin(*part) == Builtin::Fr) {
                    ax.usesFr = true;
                } else {
                    fusible = false;
                    break;
                }
            }
            if (fusible) {
                ax.pass = CompiledAxiom::Pass::FusedAcyclic;
                return ax;
            }
            ax.constParts.clear();
            ax.usesCo = ax.usesFr = false;
        }

        // irreflexive (A; B) <=> empty (A & B^-1): the O(n^3)
        // composition becomes a per-edge O(1) transposed lookup.
        if (stmt.kind == Stmt::Kind::Irreflexive
            && shape->kind == Expr::Kind::Seq) {
            const auto x = classifyOperand(*shape->a);
            const auto y = classifyOperand(*shape->b);
            if (x && y) {
                ax.pass = CompiledAxiom::Pass::EdgeGuard;
                ax.guardX = *x;
                ax.guardY = *y;
                ax.guardYTransposed = true;
                return ax;
            }
        }
        if (stmt.kind == Stmt::Kind::Empty
            && shape->kind == Expr::Kind::Inter
            && shape->type == Type::Rel) {
            const Expr *b = shape->b.get();
            bool transposed = false;
            if (b->kind == Expr::Kind::Inverse) {
                b = b->a.get();
                transposed = true;
            }
            const auto x = classifyOperand(*shape->a);
            const auto y = classifyOperand(*b);
            if (x && y) {
                ax.pass = CompiledAxiom::Pass::EdgeGuard;
                ax.guardX = *x;
                ax.guardY = *y;
                ax.guardYTransposed = transposed;
                return ax;
            }
        }

        ax.pass = ax.polarity == Polarity::Monotone
            ? CompiledAxiom::Pass::Partial
            : CompiledAxiom::Pass::Residual;
        return ax;
    }

    void
    classifyAxioms()
    {
        for (const Stmt &stmt : model.statements)
            if (stmt.check)
                plan.axioms.push_back(classifyAxiom(stmt));
    }

    // ---- constant folding ----

    void
    foldWalk(const Expr &e)
    {
        if (exprPolarity(e, plan.slotPolarity)
            == Polarity::Independent) {
            // Maximal Independent subtree: fold it unless it is a
            // bare name or 0 (already a slot lookup / free).
            if (e.kind != Expr::Kind::Name
                && e.kind != Expr::Kind::EmptyRel
                && plan.folds.find(&e) == plan.folds.end()) {
                plan.folds.emplace(
                    &e, model.slotCount + int(plan.foldExprs.size()));
                plan.foldExprs.push_back(&e);
            }
            return;
        }
        if (e.a)
            foldWalk(*e.a);
        if (e.b)
            foldWalk(*e.b);
    }

    void
    collectFolds()
    {
        // Fold inside everything re-evaluated per candidate: co/fr-
        // dependent live definitions, and axioms the filter evaluates
        // through evalCatExpr() at push/accept time.  Fused and
        // guarded axioms evaluate their constant parts once per epoch
        // already, so folding them would only add storage.
        for (const Stratum &s : plan.strata) {
            if (s.polarity == Polarity::Independent)
                continue;
            for (const Binding *b : s.bindings)
                foldWalk(*b->body);
        }
        for (const CompiledAxiom &ax : plan.axioms)
            if (ax.pass == CompiledAxiom::Pass::Partial
                || ax.pass == CompiledAxiom::Pass::Residual)
                foldWalk(*ax.stmt->check);
    }
};

} // anonymous namespace

std::shared_ptr<const CompiledPlan>
compileCatModel(const CatModel &model)
{
    GAM_TRACE_SCOPE("cat.compile");
    obs::metrics().counter("cat.compiles").inc();
    auto builder = std::make_shared<PlanBuilder>(model);
    builder->run();
    // Alias the plan into the builder's lifetime (the plan only
    // borrows from the model, but this keeps the copy trivial).
    return std::shared_ptr<const CompiledPlan>(builder,
                                               &builder->plan);
}

// ------------------------------------------------------ plan dumping

std::string
CompiledPlan::describe() const
{
    std::ostringstream out;
    size_t live = 0;
    for (const bool l : slotLive)
        live += l ? 1 : 0;
    out << "plan for model \"" << model->name << "\": "
        << model->slotCount << " definition"
        << (model->slotCount == 1 ? "" : "s") << " (" << live
        << " live), " << axioms.size() << " axiom"
        << (axioms.size() == 1 ? "" : "s") << "\n";

    out << "strata (dependency evaluation order):\n";
    if (strata.empty())
        out << "  (none)\n";
    for (size_t i = 0; i < strata.size(); ++i) {
        const Stratum &s = strata[i];
        out << "  [" << i << "]";
        for (const Binding *b : s.bindings)
            out << " " << b->name;
        out << "  " << (s.fixpoint ? "fixpoint" : "direct") << ", "
            << polarityName(s.polarity) << "\n";
    }

    out << "constants (evaluated once per rf epoch):\n";
    bool anyConst = false;
    for (size_t i = 0; i < foldExprs.size(); ++i) {
        out << "  fold slot " << (model->slotCount + int(i)) << ": "
            << exprToString(*foldExprs[i]) << "\n";
        anyConst = true;
    }
    const auto operandStr = [](const CompiledAxiom::Operand &op) {
        switch (op.kind) {
          case CompiledAxiom::Operand::Kind::Const:
            return exprToString(*op.expr);
          case CompiledAxiom::Operand::Kind::Co:
            return std::string("co");
          case CompiledAxiom::Operand::Kind::Fr:
            return std::string("fr");
        }
        panic("cat compile: bad operand kind");
    };
    for (const CompiledAxiom &ax : axioms) {
        if (ax.pass == CompiledAxiom::Pass::FusedAcyclic) {
            for (const Expr *part : ax.constParts) {
                out << "  axiom " << ax.stmt->axiomName
                    << " const part: " << exprToString(*part) << "\n";
                anyConst = true;
            }
        } else if (ax.pass == CompiledAxiom::Pass::EdgeGuard) {
            for (const auto *op : {&ax.guardX, &ax.guardY})
                if (op->kind == CompiledAxiom::Operand::Kind::Const) {
                    out << "  axiom " << ax.stmt->axiomName
                        << " guard operand: " << operandStr(*op)
                        << "\n";
                    anyConst = true;
                }
        }
    }
    if (!anyConst)
        out << "  (none)\n";

    out << "axiom passes:\n";
    for (const CompiledAxiom &ax : axioms) {
        out << "  " << ax.stmt->axiomName << ": "
            << polarityName(ax.polarity) << ", ";
        switch (ax.pass) {
          case CompiledAxiom::Pass::Stable:
            out << "stable (decided once per rf epoch)";
            break;
          case CompiledAxiom::Pass::FusedAcyclic:
            out << "fused-acyclic (incrementally closed reachability: "
                << ax.constParts.size() << " const part"
                << (ax.constParts.size() == 1 ? "" : "s")
                << (ax.usesCo ? " + co" : "")
                << (ax.usesFr ? " + fr" : "") << ")";
            break;
          case CompiledAxiom::Pass::EdgeGuard:
            out << "edge-guard (empty(" << operandStr(ax.guardX)
                << " & " << operandStr(ax.guardY)
                << (ax.guardYTransposed ? "^-1" : "") << "))";
            break;
          case CompiledAxiom::Pass::Partial:
            out << "partial (monotone evaluation on partial views)";
            break;
          case CompiledAxiom::Pass::Residual:
            out << "residual (complete candidates only)";
            break;
        }
        out << "\n";
    }

    out << "filter: "
        << (fullyIncremental
                ? "fully incremental (pure bitset maintenance after "
                  "beginRf; accept is O(1))"
                : "hybrid (falls back to expression evaluation on "
                  "views)")
        << "\n";
    return out.str();
}

// --------------------------------------------------- compiled filter

namespace
{

Value
relValueOf(Rel r)
{
    Value v;
    v.type = Type::Rel;
    v.rel = std::move(r);
    return v;
}

const Rel &
relOf(const Value &v)
{
    GAM_ASSERT(v.type == Type::Rel,
               "cat compile: expected a relation");
    return v.rel;
}

/**
 * The generated filter: fixed relation slots, per-epoch constants,
 * incrementally-closed fused axioms and per-edge guards.  One
 * instance per enumeration walk; the plan is shared and immutable.
 */
class CompiledFilter final : public axiomatic::IncrementalFilter
{
    using Pass = CompiledAxiom::Pass;
    using OpKind = CompiledAxiom::Operand::Kind;

  public:
    explicit CompiledFilter(std::shared_ptr<const CompiledPlan> p)
        : plan(std::move(p)), slots(size_t(plan->totalSlots)),
          axState(plan->axioms.size())
    {
        for (const CompiledAxiom &ax : plan->axioms) {
            if (ax.pass == Pass::EdgeGuard) {
                for (const auto *op : {&ax.guardX, &ax.guardY}) {
                    needCoRel |= op->kind == OpKind::Co;
                    needFrRel |= op->kind == OpKind::Fr;
                }
            }
            anyPartial |= ax.pass == Pass::Partial;
            anyResidual |= ax.pass == Pass::Residual;
        }
    }

    bool
    beginRf(const CandidateExecution &cand) override
    {
        const ExecView &view = builder.view(cand);
        n = view.n;

        // Relation slots: live definitions in stratified order, then
        // the folded constants (all of them epoch-level values; the
        // co/fr-dependent strata get re-derived per view on the
        // fallback paths).
        evalStrata(view, /*withFolds=*/false,
                   /*coDependentOnly=*/false);
        for (size_t k = 0; k < plan->foldExprs.size(); ++k)
            slots[size_t(plan->model->slotCount) + k] = evalCatExpr(
                *plan->foldExprs[k], view, slots, nullptr);

        // Candidate-to-view event translation and per-address tables.
        viewOfCand.assign(cand.events.size(), -1);
        loadsByAddr.clear();
        storesByAddr.clear();
        for (size_t c = 0; c < cand.events.size(); ++c) {
            viewOfCand[c] = builder.viewEventOfCand(c);
            const auto &ev = cand.events[c];
            if (ev.isStore)
                storesByAddr[ev.addr].push_back(viewOfCand[c]);
            if (ev.isLoad) {
                const int src = ev.rf == model::InitStore
                    ? -1 : cand.tables.eventOfStore(ev.rf);
                GAM_ASSERT(ev.rf == model::InitStore || src >= 0,
                           "rf store missing");
                loadsByAddr[ev.addr].push_back(
                    {viewOfCand[c], src});
            }
        }

        if (needCoRel) {
            coRel = Rel(n);
            coAdded.clear();
        }
        if (needFrRel) {
            frRel = Rel(n);
            frAdded.clear();
        }
        frames.clear();

        for (size_t i = 0; i < plan->axioms.size(); ++i) {
            const CompiledAxiom &ax = plan->axioms[i];
            AxiomState &st = axState[i];
            switch (ax.pass) {
              case Pass::Stable:
                // Independent: one verdict for the whole epoch.
                if (!testAxiom(ax, view))
                    return false;
                break;
              case Pass::FusedAcyclic: {
                Rel c(n);
                for (const Expr *part : ax.constParts)
                    c = c | relOf(evalCatExpr(*part, view, slots,
                                              &plan->folds));
                st.reach = c.transitiveClosure();
                if (!st.reach.irreflexive())
                    return false;
                st.snapshots.clear();
                break;
              }
              case Pass::EdgeGuard:
                if (ax.guardX.kind == OpKind::Const)
                    st.constX = relOf(evalCatExpr(
                        *ax.guardX.expr, view, slots, &plan->folds));
                if (ax.guardY.kind == OpKind::Const)
                    st.constY = relOf(evalCatExpr(
                        *ax.guardY.expr, view, slots, &plan->folds));
                break;
              default:
                break;
            }
        }

        // Epoch-constant fr edges: a load reading the initial memory
        // precedes every same-address store in *every* completion
        // (the store set per address is fixed, only its order varies),
        // so these edges are installed -- and checked -- up front.
        for (const auto &[addr, loads] : loadsByAddr) {
            const auto sit = storesByAddr.find(addr);
            if (sit == storesByAddr.end())
                continue;
            for (const LoadInfo &li : loads) {
                if (li.srcCand >= 0)
                    continue;
                for (const int s : sit->second) {
                    if (s == li.viewIdx)
                        continue; // an RMW never fr-precedes itself
                    if (!addFrEdge(size_t(li.viewIdx), size_t(s)))
                        return false;
                }
            }
        }
        return true;
    }

    bool
    pushStore(const CandidateExecution &cand, isa::Addr addr,
              int eventIdx) override
    {
        // Open the frame before any mutation: popStore() arrives even
        // when this push fails, and restores wholesale.
        for (size_t i = 0; i < plan->axioms.size(); ++i)
            if (plan->axioms[i].pass == Pass::FusedAcyclic)
                axState[i].snapshots.push_back(axState[i].reach);
        frames.push_back({coAdded.size(), frAdded.size()});
        return pushStoreImpl(cand, addr, eventIdx);
    }

    void
    popStore(const CandidateExecution &, isa::Addr, int) override
    {
        for (size_t i = 0; i < plan->axioms.size(); ++i) {
            if (plan->axioms[i].pass != Pass::FusedAcyclic)
                continue;
            axState[i].reach = std::move(axState[i].snapshots.back());
            axState[i].snapshots.pop_back();
        }
        const Frame f = frames.back();
        frames.pop_back();
        while (coAdded.size() > f.coMark) {
            coRel.set(coAdded.back().first, coAdded.back().second,
                      false);
            coAdded.pop_back();
        }
        while (frAdded.size() > f.frMark) {
            frRel.set(frAdded.back().first, frAdded.back().second,
                      false);
            frAdded.pop_back();
        }
    }

    bool
    accept(const CandidateExecution &cand) override
    {
        // Stable axioms were decided at beginRf(); fused and guarded
        // axioms checked every edge as it appeared, so a surviving
        // complete candidate already satisfies them exactly.
        if (plan->fullyIncremental)
            return true;
        const ExecView &view = builder.view(cand);
        evalStrata(view, /*withFolds=*/true, /*coDependentOnly=*/true);
        for (const CompiledAxiom &ax : plan->axioms)
            if ((ax.pass == Pass::Partial
                 || ax.pass == Pass::Residual)
                && !testAxiom(ax, view))
                return false;
        return true;
    }

  private:
    struct AxiomState
    {
        Rel reach;                  ///< FusedAcyclic: closed union
        std::vector<Rel> snapshots; ///< one per open push frame
        Rel constX, constY;         ///< EdgeGuard constant operands
    };

    struct LoadInfo
    {
        int viewIdx;
        int srcCand; ///< candidate index of the rf source; -1 = init
    };

    struct Frame
    {
        size_t coMark, frMark;
    };

    bool
    pushStoreImpl(const CandidateExecution &cand, isa::Addr addr,
                  int eventIdx)
    {
        const auto &p = cand.coOrder.at(addr);
        const size_t vv = size_t(viewOfCand[size_t(eventIdx)]);

        // The coherence adjacency edge closes the whole new-pair set
        // for the reachability relations; the guards' materialized co
        // needs every pair.
        if (p.size() >= 2) {
            const size_t prev =
                size_t(viewOfCand[size_t(p[p.size() - 2])]);
            for (size_t i = 0; i < plan->axioms.size(); ++i) {
                const CompiledAxiom &ax = plan->axioms[i];
                if (ax.pass == Pass::FusedAcyclic && ax.usesCo
                    && !axState[i].reach.addClosedEdge(prev, vv))
                    return false;
            }
        }
        if (needCoRel) {
            for (size_t i = 0; i + 1 < p.size(); ++i) {
                const size_t u = size_t(viewOfCand[size_t(p[i])]);
                if (!guardsPass(OpKind::Co, u, vv))
                    return false;
                coRel.set(u, vv);
                coAdded.emplace_back(u, vv);
            }
        }

        // New from-read edges: loads of this address whose source is
        // already placed strictly before the new store.
        if (const auto lit = loadsByAddr.find(addr);
            lit != loadsByAddr.end()) {
            for (const LoadInfo &li : lit->second) {
                if (li.srcCand < 0 || li.srcCand == eventIdx
                    || size_t(li.viewIdx) == vv)
                    continue;
                const bool placed =
                    std::find(p.begin(), p.end() - 1, li.srcCand)
                    != p.end() - 1;
                if (!placed)
                    continue;
                if (!addFrEdge(size_t(li.viewIdx), vv))
                    return false;
            }
        }

        // Monotone fallback axioms: a failure on the partial view can
        // never un-fail as co and fr grow.
        if (anyPartial) {
            const ExecView &view = builder.view(cand);
            evalStrata(view, /*withFolds=*/true,
                       /*coDependentOnly=*/true);
            for (const CompiledAxiom &ax : plan->axioms)
                if (ax.pass == Pass::Partial && !testAxiom(ax, view))
                    return false;
        }
        return true;
    }

    bool
    addFrEdge(size_t l, size_t s)
    {
        for (size_t i = 0; i < plan->axioms.size(); ++i) {
            const CompiledAxiom &ax = plan->axioms[i];
            if (ax.pass == Pass::FusedAcyclic && ax.usesFr
                && !axState[i].reach.addClosedEdge(l, s))
                return false;
        }
        if (needFrRel) {
            if (!guardsPass(OpKind::Fr, l, s))
                return false;
            frRel.set(l, s);
            frAdded.emplace_back(l, s);
        }
        return true;
    }

    bool
    testOperand(const CompiledAxiom::Operand &op, const Rel &constRel,
                size_t a, size_t b) const
    {
        switch (op.kind) {
          case OpKind::Const: return constRel.test(a, b);
          case OpKind::Co: return coRel.test(a, b);
          case OpKind::Fr: return frRel.test(a, b);
        }
        panic("cat compile: bad operand kind");
    }

    /**
     * May edge (u, v) join relation @p rel?  A guard empty(X & Y^-1)
     * fails iff some pair sits in X with its transpose in Y; checking
     * each new edge against the other operand as it lands is exact
     * because both sides only grow.
     */
    bool
    guardsPass(OpKind rel, size_t u, size_t v) const
    {
        for (size_t i = 0; i < plan->axioms.size(); ++i) {
            const CompiledAxiom &ax = plan->axioms[i];
            if (ax.pass != Pass::EdgeGuard)
                continue;
            const AxiomState &st = axState[i];
            if (ax.guardX.kind == rel) {
                // New X(u, v): violated when Y(v, u) (transposed
                // guard) resp. Y(u, v).
                const bool hit = ax.guardYTransposed
                    ? testOperand(ax.guardY, st.constY, v, u)
                    : testOperand(ax.guardY, st.constY, u, v);
                if (hit)
                    return false;
            }
            if (ax.guardY.kind == rel) {
                const bool hit = ax.guardYTransposed
                    ? testOperand(ax.guardX, st.constX, v, u)
                    : testOperand(ax.guardX, st.constX, u, v);
                if (hit)
                    return false;
            }
        }
        return true;
    }

    bool
    testAxiom(const CompiledAxiom &ax, const ExecView &view)
    {
        const Value v =
            evalCatExpr(*ax.stmt->check, view, slots, &plan->folds);
        switch (ax.stmt->kind) {
          case Stmt::Kind::Acyclic:
            return relOf(v).acyclic();
          case Stmt::Kind::Irreflexive:
            return relOf(v).irreflexive();
          case Stmt::Kind::Empty:
            return v.type == Type::Set ? v.set.empty()
                                       : v.rel.empty();
          default:
            panic("cat compile: statement is not an axiom");
        }
    }

    void
    evalStrata(const ExecView &view, bool withFolds,
               bool coDependentOnly)
    {
        const FoldMap *f = withFolds ? &plan->folds : nullptr;
        for (const Stratum &s : plan->strata) {
            if (coDependentOnly
                && s.polarity == Polarity::Independent)
                continue;
            if (!s.fixpoint) {
                for (const Binding *b : s.bindings)
                    slots[size_t(b->slot)] =
                        evalCatExpr(*b->body, view, slots, f);
                continue;
            }
            // Least fixpoint confined to this SCC (the static checker
            // enforces monotone recursion, so it converges).
            for (const Binding *b : s.bindings)
                slots[size_t(b->slot)] = relValueOf(Rel(view.n));
            const size_t cap =
                view.n * view.n * s.bindings.size() + 2;
            bool changed = true;
            for (size_t round = 0; changed && round < cap; ++round) {
                changed = false;
                for (const Binding *b : s.bindings) {
                    Value next =
                        evalCatExpr(*b->body, view, slots, f);
                    if (!(relOf(next)
                          == relOf(slots[size_t(b->slot)]))) {
                        slots[size_t(b->slot)] = std::move(next);
                        changed = true;
                    }
                }
            }
            GAM_ASSERT(!changed,
                       "cat compile: let rec did not converge");
        }
    }

    std::shared_ptr<const CompiledPlan> plan;
    ExecBuilder builder;
    std::vector<Value> slots;
    size_t n = 0;

    std::vector<AxiomState> axState;
    bool needCoRel = false;
    bool needFrRel = false;
    bool anyPartial = false;
    bool anyResidual = false;

    std::vector<int> viewOfCand;
    std::map<isa::Addr, std::vector<LoadInfo>> loadsByAddr;
    std::map<isa::Addr, std::vector<int>> storesByAddr;

    Rel coRel, frRel;
    std::vector<std::pair<size_t, size_t>> coAdded, frAdded;
    std::vector<Frame> frames;
};

} // anonymous namespace

std::unique_ptr<axiomatic::IncrementalFilter>
makeCompiledFilter(std::shared_ptr<const CompiledPlan> plan)
{
    return std::make_unique<CompiledFilter>(std::move(plan));
}

} // namespace gam::cat
