"""Seeded synthetic benchmark datasets.

The published restaurant-review and citation benchmarks are not
redistributable with this package, so these generators produce stand-ins
with the same shape and published summary statistics: a restaurant table
with 864 records over 752 entities (5 fields, no missing entries) and a
citation table with 1295 records over 122 entities (3 fields, ~3%
missing). Noise mimics the documented error types: typos, transpositions,
abbreviation variants, reformatting, and occasional conflicting values.

Every bounded draw goes through _below, which takes bits from the
generator's getrandbits exactly as the random module's choice and randrange
do on Python 3.10-3.13, without their call frames; random(), sample,
shuffle and lognormvariate are the module's own. So a seed gives the same
records as the plain random calls would, and
tests/test_synth.py::TestDigests pins the bytes of each generator's CSV.
"""

from __future__ import annotations

import operator
import random
import string
from functools import reduce

from .corpus import DataSet

RESTAURANT_RECORDS = 864
RESTAURANT_ENTITIES = 752
CITATION_RECORDS = 1295
CITATION_ENTITIES = 122

_NAME_CORE = [
    "adobe", "alder", "almond", "amber", "anchor", "apollo", "arbor", "argent",
    "arroyo", "aspen", "aster", "aurora", "avalon", "azure", "bamboo", "basil",
    "bayside", "beacon", "bellflower", "birch", "bluebird", "bramble", "brass",
    "briar", "bristol", "brook", "cactus", "calico", "camellia", "canyon",
    "caravan", "carousel", "cascade", "cedar", "charcoal", "cherry", "chestnut",
    "cinder", "cinnamon", "citrus", "clover", "cobalt", "compass", "copper",
    "coral", "cottonwood", "coyote", "crescent", "crimson", "cypress", "dahlia",
    "derby", "dolphin", "dragonfly", "driftwood", "ebony", "echo", "elm",
    "ember", "emerald", "falcon", "fennel", "fig", "firefly", "flamingo",
    "fountain", "foxglove", "gardenia", "garnet", "ginger", "golden", "granite",
    "harbor", "hawthorn", "hazel", "heron", "hibiscus", "hickory", "holly",
    "honeybee", "horizon", "hummingbird", "indigo", "iris", "ironwood", "ivory",
    "jade", "jasmine", "juniper", "kestrel", "kingfisher", "lagoon", "lantern",
    "larkspur", "laurel", "lavender", "lemongrass", "lighthouse", "lilac",
    "linden", "lotus", "magnolia", "mallard", "mango", "maple", "marigold",
    "meadow", "mesquite", "mimosa", "mockingbird", "monarch", "moonstone",
    "mulberry", "myrtle", "nectar", "nightingale", "nutmeg", "oakleaf", "ocean",
    "olive", "onyx", "orchard", "oriole", "osprey", "palmetto", "pepper",
    "peregrine", "persimmon", "pinecone", "pistachio", "plum", "pomegranate",
    "poppy", "prairie", "quail", "quartz", "quince", "raven", "redwood", "reef",
    "rosemary", "saffron", "sage", "saguaro", "sandalwood", "sapphire",
    "scarlet", "seabreeze", "sequoia", "sierra", "silverleaf", "sparrow",
    "spruce", "starling", "sterling", "summit", "sundial", "sunflower",
    "sycamore", "tamarind", "tangerine", "teakwood", "thistle", "thyme",
    "timber", "topaz", "tulip", "tundra", "turquoise", "velvet", "verbena",
    "vermilion", "violet", "walnut", "willow", "windmill", "wisteria", "wren",
    "yarrow", "zephyr", "zinnia",
]

_NAME_TAIL = [
    "grill", "bistro", "kitchen", "diner", "cafe", "restaurant", "house",
    "tavern", "delicatessen", "pizzeria", "steakhouse", "cantina", "trattoria",
    "brasserie", "chophouse", "eatery", "grille", "roadhouse", "smokehouse",
    "taqueria",
]

# common word-level abbreviation variants seen in review listings
_ABBREV = {
    "delicatessen": "deli",
    "restaurant": "rest.",
    "barbecue": "bbq",
    "grille": "grill",
    "avenue": "ave.",
    "street": "st.",
    "boulevard": "blvd.",
    "drive": "dr.",
    "road": "rd.",
    "north": "n.",
    "south": "s.",
    "east": "e.",
    "west": "w.",
}

_CITIES = [
    ("los angeles", "west la"), ("new york", "new york city"),
    ("san francisco", "san francisco"), ("atlanta", "atlanta"),
    ("chicago", "chicago"), ("boston", "boston"), ("seattle", "seattle"),
    ("pasadena", "pasadena"), ("santa monica", "santa monica"),
    ("brooklyn", "brooklyn"), ("oakland", "oakland"),
    ("venice", "venice beach"), ("burbank", "burbank"),
    ("glendale", "glendale"), ("berkeley", "berkeley"),
]

_STREETS = [
    "main", "ocean", "sunset", "wilshire", "melrose", "pico", "broadway",
    "madison", "lexington", "columbus", "mission", "valencia", "geary",
    "peachtree", "ponce", "halsted", "clark", "beacon", "newbury", "pine",
    "union", "franklin", "highland", "vermont", "fairfax", "ventura",
    "colorado", "arizona", "montana", "idaho",
]

_STREET_TYPES = ["street", "avenue", "boulevard", "drive", "road"]

_CUISINES = [
    ("american (new)", "american"), ("french (new)", "french"),
    ("italian", "italian"), ("japanese", "japanese"), ("chinese", "chinese"),
    ("mexican", "mexican"), ("thai", "thai"), ("indian", "indian"),
    ("greek", "greek"), ("spanish", "spanish"), ("seafood", "seafood"),
    ("steakhouses", "steak"), ("delis", "delicatessen"),
    ("barbecue", "bbq"), ("vietnamese", "vietnamese"),
    ("mediterranean", "mediterranean"), ("cajun", "cajun"),
    ("southern", "southern soul food"), ("vegetarian", "vegetarian"),
    ("coffee shops", "coffeehouses"),
]


def _below(rng: random.Random, n: int) -> int:
    """A uniform int in [0, n), n > 0: rng.randrange(n), drawn as CPython's
    _randbelow_with_getrandbits draws it (the rule behind choice, randrange,
    sample and shuffle), so the generator's stream advances the same way."""
    k = n.bit_length()
    r = rng.getrandbits(k)
    while r >= n:
        r = rng.getrandbits(k)
    return r


def _typo(rng: random.Random, word: str) -> str:
    """One character-level error: transpose, drop, double, or substitute."""
    if len(word) < 4:
        return word
    i = 1 + _below(rng, len(word) - 2)
    op = _below(rng, 4)
    if op == 0:
        return word[:i] + word[i + 1] + word[i] + word[i + 2 :]
    if op == 1:
        return word[:i] + word[i + 1 :]
    if op == 2:
        return word[:i] + word[i] + word[i:]
    letter = string.ascii_lowercase[_below(rng, len(string.ascii_lowercase))]
    return word[:i] + letter + word[i + 1 :]


def _typo_in_phrase(rng: random.Random, phrase: str) -> str:
    words = phrase.split()
    candidates = [i for i, w in enumerate(words) if len(w) >= 4]
    if not candidates:
        return phrase
    i = candidates[_below(rng, len(candidates))]
    words[i] = _typo(rng, words[i])
    return " ".join(words)


def _abbreviate(phrase: str) -> str:
    return " ".join(_ABBREV.get(w, w) for w in phrase.split())


def _phone(rng: random.Random) -> str:
    return (
        f"{200 + _below(rng, 799)}-{200 + _below(rng, 799)}-"
        f"{1000 + _below(rng, 8999)}"
    )


def _restaurant_entity(rng: random.Random, used_names: set[str]) -> dict[str, str]:
    while True:
        core = _NAME_CORE[_below(rng, len(_NAME_CORE))]
        tail = _NAME_TAIL[_below(rng, len(_NAME_TAIL))]
        name = f"{core} {tail}"
        if rng.random() < 0.25:
            name = "the " + name
        if name not in used_names:
            used_names.add(name)
            break
    street = (
        f"{1 + _below(rng, 9998)} {_STREETS[_below(rng, len(_STREETS))]} "
        f"{_STREET_TYPES[_below(rng, len(_STREET_TYPES))]}"
    )
    city = _CITIES[_below(rng, len(_CITIES))]
    cuisine = _CUISINES[_below(rng, len(_CUISINES))]
    return {
        "name": name,
        "address": street,
        "city": city[0],
        "city_alt": city[1],
        "phone": _phone(rng),
        "cuisine": cuisine[0],
        "cuisine_alt": cuisine[1],
    }


def _restaurant_duplicate(rng: random.Random, ent: dict[str, str]) -> list[str]:
    """A second listing of the same restaurant, as another review source."""
    name = ent["name"]
    if rng.random() < 0.5:
        name = _abbreviate(name)
    if name.startswith("the ") and rng.random() < 0.4:
        name = name[4:]
    if rng.random() < 0.45:
        name = _typo_in_phrase(rng, name)
    address = ent["address"]
    if rng.random() < 0.6:
        address = _abbreviate(address)
    if rng.random() < 0.25:
        address = _typo_in_phrase(rng, address)
    city = ent["city_alt"] if rng.random() < 0.3 else ent["city"]
    phone = ent["phone"]
    if rng.random() < 0.5:
        phone = phone.replace("-", "/", 1)
    elif rng.random() < 0.1:
        phone = _phone(rng)  # conflicting information
    cuisine = ent["cuisine_alt"] if rng.random() < 0.45 else ent["cuisine"]
    if rng.random() < 0.15:
        cuisine = _typo_in_phrase(rng, cuisine)
    return [name, address, city, phone, cuisine]


def make_restaurants(seed: int = 7) -> DataSet:
    """Restaurant benchmark stand-in: 864 records, 752 entities, 5 fields.

    The first column carries the ground-truth entity id.
    """
    rng = random.Random(seed)
    used: set[str] = set()
    entities = [
        _restaurant_entity(rng, used) for _ in range(RESTAURANT_ENTITIES)
    ]
    rows = [
        (str(eid), ent["name"], ent["address"], ent["city"], ent["phone"],
         ent["cuisine"])
        for eid, ent in enumerate(entities)
    ]
    duplicated = rng.sample(
        range(RESTAURANT_ENTITIES), RESTAURANT_RECORDS - RESTAURANT_ENTITIES
    )
    for eid in duplicated:
        rows.append((str(eid), *_restaurant_duplicate(rng, entities[eid])))
    rng.shuffle(rows)
    return DataSet(
        records=tuple(rows),
        schema=("entity_id", "name", "address", "city", "phone", "cuisine"),
    )


_FIRST_NAMES = [
    "alice", "bruno", "carla", "daniel", "elena", "felix", "grace", "henry",
    "irene", "jorge", "karin", "liam", "maria", "nadia", "oscar", "petra",
    "quentin", "rosa", "stefan", "tanya", "ulrich", "vera", "walter", "xenia",
    "yusuf", "zoe",
]

_LAST_NAMES = [
    "aldrich", "barros", "calloway", "dunmore", "eastwick", "farnsworth",
    "goldberg", "hollister", "ivanova", "jernigan", "kowalski", "lindqvist",
    "marchetti", "norgaard", "okafor", "pemberton", "quijano", "rosenblum",
    "sandoval", "thackeray", "ulanova", "vanterpool", "whitfield", "xiang",
    "yamamoto", "zielinski", "abernathy", "bhattacharya", "castellanos",
    "drummond", "eriksson", "fitzwilliam", "granados", "huttenlocher",
    "iglesias", "jankowski", "kettering", "lombardi", "montgomery",
    "nakamura", "obermeyer", "petrakis", "quintero", "rutherford",
    "stauffer", "tremblay", "underwood", "villanueva", "wainwright",
    "yankovic",
]

# every (first, last) pair, built once: sample's draws depend only on the
# population's length and k
_AUTHORS = tuple((f, l) for f in _FIRST_NAMES for l in _LAST_NAMES)

_TITLE_WORDS = [
    "adaptive", "algorithms", "analysis", "approximate", "bayesian",
    "boosting", "bounds", "classification", "clustering", "combinatorial",
    "complexity", "compression", "computation", "convergence", "convex",
    "decision", "detection", "discriminative", "distributed", "dynamic",
    "efficient", "empirical", "ensembles", "estimation", "evaluation",
    "factorization", "features", "filtering", "framework", "generalization",
    "gradient", "graphical", "greedy", "hierarchical", "hybrid", "inference",
    "information", "kernel", "languages", "learning", "linear", "logic",
    "margin", "markov", "matching", "methods", "minimization", "models",
    "networks", "neural", "nonparametric", "optimization", "parallel",
    "parsing", "planning", "prediction", "probabilistic", "programming",
    "reasoning", "recognition", "recursive", "regression", "reinforcement",
    "representation", "retrieval", "robust", "sampling", "scalable", "search",
    "selection", "semantic", "sequential", "spectral", "statistical",
    "stochastic", "structured", "supervised", "symbolic", "temporal",
    "theory", "training", "transduction", "uncertainty", "variational",
    "vision",
]

_VENUES = [
    ("proceedings of the international conference on machine learning",
     "icml", "proc. int. conf. machine learning"),
    ("advances in neural information processing systems",
     "nips", "neural information processing systems"),
    ("journal of artificial intelligence research",
     "jair", "j. artificial intelligence research"),
    ("national conference on artificial intelligence",
     "aaai", "proc. national conf. artificial intelligence"),
    ("international joint conference on artificial intelligence",
     "ijcai", "proc. int. joint conf. artificial intelligence"),
    ("machine learning journal", "machine learning", "mach. learning j."),
    ("conference on computational learning theory",
     "colt", "proc. computational learning theory"),
    ("international conference on knowledge discovery and data mining",
     "kdd", "proc. knowledge discovery and data mining"),
    ("conference on uncertainty in artificial intelligence",
     "uai", "uncertainty in artificial intelligence"),
    ("artificial intelligence journal", "artif. intell.",
     "artificial intelligence"),
    ("annual meeting of the association for computational linguistics",
     "acl", "proc. assoc. computational linguistics"),
    ("ieee transactions on pattern analysis and machine intelligence",
     "pami", "ieee trans. pattern analysis machine intelligence"),
]


def _citation_sizes(rng: random.Random) -> list[int]:
    """Cluster sizes for the citation stand-in: skewed, exact total."""
    weights = [rng.lognormvariate(0.0, 1.0) for _ in range(CITATION_ENTITIES)]
    # left to right, as builtin sum() compensates from Python 3.12
    total_weight = reduce(operator.add, weights, 0.0)
    spare = CITATION_RECORDS - CITATION_ENTITIES
    sizes = [1 + int(spare * w / total_weight) for w in weights]
    while sum(sizes) < CITATION_RECORDS:
        sizes[_below(rng, CITATION_ENTITIES)] += 1
    while sum(sizes) > CITATION_RECORDS:
        i = _below(rng, CITATION_ENTITIES)
        if sizes[i] > 1:
            sizes[i] -= 1
    return sizes


def _citation_entity(rng: random.Random) -> dict:
    authors = rng.sample(_AUTHORS, 1 + _below(rng, 3))
    title = " ".join(rng.sample(_TITLE_WORDS, 4 + _below(rng, 4)))
    return {"authors": authors, "title": title,
            "venue": _VENUES[_below(rng, len(_VENUES))]}


def _format_authors(rng: random.Random, authors: list[tuple[str, str]]) -> str:
    style = _below(rng, 3)
    parts = []
    for first, last in authors:
        if rng.random() < 0.12:
            last = _typo(rng, last)
        if style == 0:
            parts.append(f"{first} {last}")
        elif style == 1:
            parts.append(f"{first[0]}. {last}")
        else:
            parts.append(f"{last}, {first[0]}.")
    joiner = " and " if rng.random() < 0.4 else ", "
    return joiner.join(parts)


def _citation_record(rng: random.Random, ent: dict) -> list[str]:
    authors = list(ent["authors"])
    if len(authors) > 1 and rng.random() < 0.15:
        authors = authors[:-1]  # et-al style truncation
    author_str = _format_authors(rng, authors)
    title = ent["title"]
    if rng.random() < 0.25:
        title = _typo_in_phrase(rng, title)
    if rng.random() < 0.1:
        title = " ".join(title.split()[:-1])
    venue = ent["venue"][_below(rng, len(ent["venue"]))]
    if rng.random() < 0.1:
        venue = _typo_in_phrase(rng, venue)
    if rng.random() < 0.045:
        author_str = ""  # missing entry
    if rng.random() < 0.045:
        venue = ""
    return [author_str, title, venue]


def make_citations(seed: int = 11) -> DataSet:
    """Citation benchmark stand-in: 1295 records, 122 entities, 3 fields.

    The first column carries the ground-truth entity id; roughly 3% of
    the author and venue entries are blank.
    """
    rng = random.Random(seed)
    entities = [_citation_entity(rng) for _ in range(CITATION_ENTITIES)]
    sizes = _citation_sizes(rng)
    rows = []
    for eid, (ent, size) in enumerate(zip(entities, sizes)):
        for _ in range(size):
            rows.append((str(eid), *_citation_record(rng, ent)))
    rng.shuffle(rows)
    return DataSet(
        records=tuple(rows), schema=("entity_id", "author", "title", "venue")
    )
