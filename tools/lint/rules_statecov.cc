/**
 * @file
 * Checkpoint state-coverage rule family (state-cov).
 *
 * Every checkpointable class has one state body,
 * `template <class Self, class Ar> static void state(Self &, Ar &)`,
 * that a Sink and a Source both drive (see sim/serialize.hh), so a
 * save and a restore cannot disagree about which fields travel. What
 * can still happen is a field that travels in neither: added to the
 * class and never to its state body, it silently escapes every
 * checkpoint and shows up later as a fingerprint mystery. This rule
 * turns that into a lint failure at the change that introduces it:
 * for every class with a state body, every non-static data member
 * must be referenced (as an identifier) in it — directly, or through
 * same-class helper methods, which are inlined transitively.
 *
 * Members that cannot meaningfully be serialized are exempt without
 * a waiver, because they are wiring rather than state:
 *
 *   - pointer and reference members (rig wiring: the checkpoint
 *     layer re-links them through ordered pointer tables, see
 *     harness/checkpoint.cc),
 *   - callback members (std::function / SmallFunction),
 *   - const members (fixed at construction, re-fed by config),
 *   - mutable members (mutable declares "not logical state" — a
 *     cache, by definition).
 *
 * Everything else either shows up in the state body or carries a
 * `// lint:state-cov-ok(<why transient>)` waiver ON ITS DECLARATION
 * LINE — the finding anchors there, so the reason lives next to the
 * field it excuses.
 */

#include <set>
#include <sstream>
#include <string>

#include "model.hh"
#include "rules.hh"

namespace pagesim::lint
{

namespace
{

/**
 * True when @p typeText declares wiring rather than state (pointer,
 * reference, callback, const or mutable; see the file comment). The
 * type text is the space-joined token spelling left of the declarator
 * (e.g. "const std :: vector < Pfn > &").
 */
bool
isExempt(const std::string &typeText)
{
    std::istringstream in(typeText);
    std::string word;
    while (in >> word) {
        if (word == "*" || word == "&" || word == "function" ||
            word == "SmallFunction" || word == "const" ||
            word == "mutable")
            return true;
    }
    return false;
}

/**
 * The class's state body: a member named `state` that takes at least
 * (self, archive), as opposed to an accessor of the same name.
 */
const MethodDef *
stateBody(const CodeModel &model, const std::string &klass)
{
    const auto it = model.methods.find(klass);
    if (it == model.methods.end())
        return nullptr;
    for (const MethodDef &m : it->second)
        if (m.name == "state" && m.params.size() >= 2)
            return &m;
    return nullptr;
}

/**
 * Collect every identifier mentioned in @p def's body into
 * @p idents, inlining unqualified calls to other methods of the
 * same class, so a state body that delegates to private (static)
 * helpers still covers the fields they touch.
 */
void
collectReferencedIdents(const CodeModel &model, const std::string &klass,
                        const MethodDef &def,
                        std::set<std::string> &idents,
                        std::set<const MethodDef *> &visited, int depth)
{
    if (depth > 4 || visited.count(&def) != 0)
        return;
    visited.insert(&def);
    const std::vector<Token> &toks = def.file->lex.tokens;
    for (std::size_t i = def.bodyOpen + 1; i < def.bodyClose; ++i) {
        const Token &t = toks[i];
        if (t.kind != Token::Kind::Identifier)
            continue;
        idents.insert(t.text);
        if (i + 1 >= def.bodyClose ||
            toks[i + 1].kind != Token::Kind::Punct ||
            toks[i + 1].text != "(")
            continue;
        // Unqualified call: same-class helper?
        if (i > 0 && toks[i - 1].kind == Token::Kind::Punct &&
            (toks[i - 1].text == "." || toks[i - 1].text == "::" ||
             toks[i - 1].text == "->"))
            continue;
        const MethodDef *callee = model.method(klass, t.text);
        if (callee != nullptr)
            collectReferencedIdents(model, klass, *callee, idents,
                                    visited, depth + 1);
    }
}

} // namespace

void
runStateCovRules(const SourceFile &file, const RuleContext &ctx,
                 std::vector<Finding> &out)
{
    const CodeModel &model = ctx.model;
    for (const auto &[name, cls] : model.classes) {
        if (cls.file != &file)
            continue; // report in the declaring file only
        const MethodDef *body = stateBody(model, name);
        if (body == nullptr)
            continue; // not checkpointable

        std::set<std::string> refs;
        std::set<const MethodDef *> visited;
        collectReferencedIdents(model, name, *body, refs, visited, 0);

        for (const FieldDecl &f : cls.fields) {
            if (isExempt(f.type) || refs.count(f.name) != 0)
                continue;
            out.push_back(Finding{
                file.relPath, f.line, kRuleStateCov,
                "field '" + f.name + "' of checkpointable class '" +
                    name +
                    "' is not referenced in its state body: a "
                    "checkpoint would silently drop it — serialize it, "
                    "or waive with lint:state-cov-ok(<why transient>) "
                    "on the declaration"});
        }
    }
}

} // namespace pagesim::lint
