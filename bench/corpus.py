"""Seeded corpora for the benchmark workloads.

Everything here is built from an explicit seed and owes nothing to the
package under test: theories are rendered straight to the natural-language
grammar, and gold labels come from `naive_fixpoint`, a plain sweep of every
rule over every entity until nothing changes. The closure engine and its
reference implementation in the package are code under test and are never
used to label data.

A workload corpus is built one round at a time. Round r draws from its own
random stream, so round 0 of a seed is the same however many rounds a run
manages, and no theory text is used twice within one run.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
from dataclasses import dataclass, field

# Literal: (entity, attribute, positive). Condition: (attribute, positive).
Literal = tuple[str, str, bool]
Condition = tuple[str, bool]

SMALL_ENTITIES = ("anne", "bob", "carol", "dave", "erin", "fiona", "gary", "harry")
SMALL_ATTRIBUTES = ("big", "kind", "green", "quiet", "smart", "round",
                    "nice", "furry", "young", "blue")

MAX_SKETCHES = 4  # PipelineConfig's default; the stub prepares one reply per call
NOISE = {"flip": 0.1, "corrupt": 0.2, "malform": 0.1}
MALFORMED_TEXT = "Sorry, I cannot give a structured answer to that."
SERVICE_DELAY_MS = 5.0  # the HTTP stub's fixed wait before each completion

# Subword unit the stub reports: runs of letters, runs of digits, and each
# other non-space character. Deliberately not the client's whitespace count.
_SUBWORD_RE = re.compile(r"[A-Za-z]+|[0-9]+|[^\sA-Za-z0-9]")


def subword_tokens(text: str) -> int:
    return len(_SUBWORD_RE.findall(text))


@dataclass(frozen=True)
class TheorySpec:
    entities: tuple[str, ...]
    attributes: tuple[str, ...]
    facts: tuple[Literal, ...]
    # (subject or None for every entity, body, head)
    rules: tuple[tuple[str | None, tuple[Condition, ...], Condition], ...]


def _neg(positive: bool) -> str:
    return "" if positive else "not "


def _cap(sentence: str) -> str:
    return sentence[0].upper() + sentence[1:]


def render_theory(spec: TheorySpec) -> str:
    lines = [_cap(f"{e} is {_neg(p)}{a}.") for e, a, p in spec.facts]
    for subject, body, (head_attr, head_pos) in spec.rules:
        if subject is None and all(p for _, p in body) and len(body) > 1:
            attrs = ", ".join(a for a, _ in body)
            lines.append(f"All {attrs} people are {_neg(head_pos)}{head_attr}.")
            continue
        who = "someone" if subject is None else subject
        first_attr, first_pos = body[0]
        parts = [f"{who} is {_neg(first_pos)}{first_attr}"]
        parts += [f"{_neg(p)}{a}" for a, p in body[1:]]
        ref = "they are" if subject is None else f"{subject} is"
        lines.append(_cap(f"if {' and '.join(parts)} then {ref} {_neg(head_pos)}{head_attr}."))
    return "\n".join(lines)


def naive_fixpoint(spec: TheorySpec) -> dict[Literal, int]:
    """Least fixpoint with shortest-derivation depths.

    Entities are independent in this unary fragment, so each one is closed
    on its own: every round applies every rule that can fire for the
    entity against the literals known before the round, until a round adds
    nothing. A literal's round number is therefore its depth. Universal
    rules range over the entities named by facts or by a concrete rule
    subject.
    """
    universe = {e for e, _, _ in spec.facts} | {s for s, _, _ in spec.rules if s is not None}
    rules = [(subject, frozenset(body), head) for subject, body, head in spec.rules]
    closure: dict[Literal, int] = {}
    for entity in universe:
        known = {(a, p): 0 for e, a, p in spec.facts if e == entity}
        mine = [(body, head) for subject, body, head in rules if subject in (None, entity)]
        depth = 0
        while True:
            depth += 1
            have = set(known)
            fresh = {head for body, head in mine if head not in have and body <= have}
            if not fresh:
                break
            known.update(dict.fromkeys(fresh, depth))
        closure.update(((entity, a, p), d) for (a, p), d in known.items())
    return closure


def is_contradictory(closure: dict[Literal, int]) -> bool:
    return any((e, a, not p) in closure for e, a, p in closure)


def decide(closure: dict[Literal, int], target: Literal) -> str:
    """Gold label: one polarity derivable decides; neither or both is Unknown."""
    entity, attribute, positive = target
    affirmed = target in closure
    refuted = (entity, attribute, not positive) in closure
    if affirmed != refuted:
        return "True" if affirmed else "False"
    return "Unknown"


def question_text(target: Literal, interrogative: bool) -> str:
    entity, attribute, positive = target
    if interrogative:
        return f"Is {_cap(entity)} {_neg(positive)}{attribute}?"
    return _cap(f"{entity} is {_neg(positive)}{attribute}.")


# ---------------------------------------------------------------------------
# Theory generators


def _random_rule(rng: random.Random, entities: list[str], attributes: list[str], *,
                 max_body: int, universal_share: float):
    conditions = [(a, rng.random() < 0.8) for a in attributes]
    conditions += [(a, rng.random() >= 0.8) for a in attributes]
    rng.shuffle(conditions)
    distinct = list(dict.fromkeys(conditions))
    body_size = rng.randint(1, min(max_body, len(distinct) - 1))
    body = tuple(distinct[:body_size])
    head = distinct[body_size]
    subject = None if rng.random() < universal_share else rng.choice(entities)
    return subject, body, head


def small_theory(rng: random.Random) -> TheorySpec:
    """At most 8 entities, 10 attributes, 8 rules and 10 facts."""
    entities = rng.sample(SMALL_ENTITIES, rng.randint(1, 8))
    attributes = rng.sample(SMALL_ATTRIBUTES, rng.randint(2, 10))
    pairs = [(e, a) for e in entities for a in attributes]
    facts = tuple((e, a, rng.random() < 0.7)
                  for e, a in rng.sample(pairs, rng.randint(1, min(10, len(pairs)))))
    rules = tuple(_random_rule(rng, entities, attributes, max_body=3, universal_share=0.8)
                  for _ in range(rng.randint(0, 8)))
    return TheorySpec(tuple(entities), tuple(attributes), facts, rules)


def large_theory(rng: random.Random, n_entities: int, n_rules: int) -> TheorySpec:
    """n_entities entities with three facts each, n_rules universal rules of
    one or two conditions over 2 * n_rules / 5 attributes.

    That attribute density makes derivations chain several rounds deep
    without saturating every entity.
    """
    entities = [f"ent{i}" for i in range(n_entities)]
    attributes = [f"attr{i}" for i in range(max(12, 2 * n_rules // 5))]
    facts = [(e, a, rng.random() < 0.85) for e in entities for a in rng.sample(attributes, 3)]
    rules = []
    for _ in range(n_rules):
        body_attrs = rng.sample(attributes, 3 if rng.random() < 0.7 else 2)
        head_attr = body_attrs.pop()
        body = tuple((a, rng.random() < 0.9) for a in body_attrs)
        rules.append((None, body, (head_attr, rng.random() < 0.97)))
    return TheorySpec(tuple(entities), tuple(attributes), tuple(facts), tuple(rules))


# ---------------------------------------------------------------------------
# Corpora


@dataclass(frozen=True)
class Question:
    record_id: str
    theory_index: int
    text: str
    target: Literal
    gold: str
    decided: bool
    # Up to three non-contradicted closure literals about the queried
    # entity, shallowest first: what a closure-backed oracle would claim.
    claims: tuple[Literal, ...]


@dataclass
class Round:
    """One round's inputs: theories, whether each one's naive closure is
    contradictory, and the questions asked of them. The closures themselves
    are not kept, so a round holds only what the commands and checks need."""

    theories: list[str] = field(default_factory=list)
    contradictory: list[bool] = field(default_factory=list)
    questions: list[Question] = field(default_factory=list)

    def dataset_jsonl(self) -> str:
        return "".join(
            json.dumps({"id": q.record_id, "theory": self.theories[q.theory_index],
                        "question": q.text, "answer": q.gold}) + "\n"
            for q in self.questions
        )

    def stats(self) -> dict:
        per_theory: dict[int, int] = {}
        for q in self.questions:
            per_theory[q.theory_index] = per_theory.get(q.theory_index, 0) + 1
        used = sorted(per_theory)
        return {
            "questions": len(self.questions),
            "distinct_theories": len(used),
            "questions_per_theory": round(len(self.questions) / max(1, len(used)), 3),
            "decided_share": round(sum(q.decided for q in self.questions)
                                   / max(1, len(self.questions)), 4),
            "contradictory_closure_share": round(
                sum(self.contradictory[i] for i in used) / max(1, len(used)), 4),
        }

    def stub_replies(self, seed: int) -> dict[str, list[str]]:
        """Replies per (theory, question) key, one per sampling call.

        A reply is what a closure-backed oracle would write: the naive
        fixpoint's verdict and the question's claims, degraded by the
        ROADMAP noise profile with draws made in a fixed order.
        """
        table: dict[str, list[str]] = {}
        for q in self.questions:
            rng = random.Random(f"{seed}:{q.record_id}")
            replies = []
            for _ in range(MAX_SKETCHES):
                if rng.random() < NOISE["malform"]:
                    replies.append(MALFORMED_TEXT)
                    continue
                answer = q.gold
                if rng.random() < NOISE["flip"]:
                    answer = rng.choice([l for l in ("True", "False", "Unknown") if l != q.gold])
                emitted = []
                for e, a, p in q.claims:
                    if rng.random() < NOISE["corrupt"]:
                        p = not p
                    emitted.append(f"{e} is {_neg(p)}{a}")
                replies.append(json.dumps({"answer": answer, "claims": emitted}))
            table[stub_key(self.theories[q.theory_index], q.text)] = replies
        return table


def stub_key(theory_text: str, question: str) -> str:
    return theory_text.strip() + "\n\x00\n" + question.strip()


def _claims(closure: dict[Literal, int], entity: str) -> tuple[Literal, ...]:
    return tuple(sorted(
        (lit for lit in closure if lit[0] == entity and (lit[0], lit[1], not lit[2]) not in closure),
        key=lambda lit: (closure[lit], lit[1], not lit[2]),
    )[:3])


def _pick_questions(rng: random.Random, spec: TheorySpec, closure: dict[Literal, int],
                    count: int, want_decided: int | None) -> list[tuple[Literal, bool]]:
    """Distinct targets; want_decided of them closure-decided when possible
    (None: undecided only).

    Targets are drawn one at a time, without repeats, until there are
    enough of each kind or none are left, so a large theory is not
    labelled on every (entity, attribute) pair for one question.
    """
    # Undecided-only questions are about an entity that has a closure
    # literal to claim, so that every answer samples sketches and a sketch
    # can certify.
    claimable = ({e for e, a, p in closure if (e, a, not p) not in closure}
                 if want_decided is None else None)
    wanted_decided = 0 if want_decided is None else count
    decided: list[Literal] = []
    undecided: list[Literal] = []
    seen: set[tuple[str, str]] = set()
    space = len(spec.entities) * len(spec.attributes)
    while len(seen) < space and (len(decided) < wanted_decided or len(undecided) < count):
        pair = (rng.choice(spec.entities), rng.choice(spec.attributes))
        if pair in seen:
            continue
        seen.add(pair)
        target = (*pair, rng.random() < 0.7)
        if claimable is not None and pair[0] not in claimable:
            continue
        (undecided if decide(closure, target) == "Unknown" else decided).append(target)
    if want_decided is None:
        return [(t, False) for t in undecided[:count]]
    take_d = min(want_decided, len(decided))
    take_u = min(count - take_d, len(undecided))
    take_d = min(count - take_u, len(decided))
    chosen = [(t, True) for t in decided[:take_d]] + [(t, False) for t in undecided[:take_u]]
    rng.shuffle(chosen)
    return chosen


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    method: str
    backend: str
    workers: int
    eval_questions: int
    answer_questions: int
    questions_per_theory: int
    decided_share: float | None  # None: closure-undecided questions only
    large_shape: tuple[int, int] | None = None  # entities x universal rules; None: small


WORKLOADS = {
    w.name: w for w in (
        Workload(
            "shared-small",
            "the reproduction's main job: several questions (4, an assumed ratio) per small "
            "theory, where parsing and closure dominate and reuse or caching by theory can engage",
            method="all", backend="oracle", workers=1,
            eval_questions=400, answer_questions=240, questions_per_theory=4,
            decided_share=0.5,
        ),
        # Not in BENCHMARK.json: on a shared 2-vCPU host its unscaled
        # timings spread by up to 35% of the median from run to run at the
        # run length that three workloads leave room for (see CHANGES.md),
        # so it runs only when asked for by name or with "all".
        Workload(
            "unique-large",
            "one question per larger theory (tens of entities, hundreds of universal rules): "
            "closure and per-claim vocabulary checks dominate and no theory text repeats",
            method="sketch", backend="oracle", workers=1,
            eval_questions=80, answer_questions=100, questions_per_theory=1,
            decided_share=0.25, large_shape=(25, 160),
        ),
        Workload(
            "http-undecided",
            "closure-undecided questions, one per small theory, so every answer samples "
            "sketches from a local HTTP endpoint: transport and waiting dominate, and caching "
            "by theory has nothing to reuse",
            method="sketch", backend="http", workers=2,
            eval_questions=160, answer_questions=100, questions_per_theory=1,
            decided_share=None,
        ),
    )
}


class RoundFactory:
    """Builds rounds for one workload and seed, never repeating a theory.

    Theories already used are remembered by a 16-byte digest of their text,
    so what the factory holds stays small however many rounds a run makes.
    """

    def __init__(self, workload: Workload, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        self._seen: set[bytes] = set()

    def build(self, round_index: int, phase: str) -> Round:
        w = self.workload
        rng = random.Random(f"{w.name}:{self.seed}:{round_index}:{phase}")
        wanted = w.eval_questions if phase == "eval" else w.answer_questions
        out = Round()
        while len(out.questions) < wanted:
            spec = large_theory(rng, *w.large_shape) if w.large_shape else small_theory(rng)
            text = render_theory(spec)
            digest = hashlib.blake2b(text.encode(), digest_size=16).digest()
            if digest in self._seen:
                continue
            closure = naive_fixpoint(spec)
            count = min(w.questions_per_theory, wanted - len(out.questions))
            if w.decided_share is None:
                picked = _pick_questions(rng, spec, closure, count, None)
            else:
                # Steer the running decided share to the target exactly, so
                # it does not drift with the seed.
                decided_so_far = sum(q.decided for q in out.questions)
                want = round(w.decided_share * (len(out.questions) + count)) - decided_so_far
                picked = _pick_questions(rng, spec, closure, count, max(0, min(count, want)))
            if not picked:
                continue
            self._seen.add(digest)
            index = len(out.theories)
            out.theories.append(text)
            out.contradictory.append(is_contradictory(closure))
            for target, decided in picked:
                qid = f"{phase}{round_index}-q{len(out.questions):05d}"
                out.questions.append(Question(
                    record_id=qid, theory_index=index,
                    text=question_text(target, rng.random() < 0.5),
                    target=target, gold=decide(closure, target), decided=decided,
                    claims=_claims(closure, target[0]),
                ))
        return out
