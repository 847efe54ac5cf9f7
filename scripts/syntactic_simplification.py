"""Walk through the built-in number-collapse language pair.

Writes the model/lexicon/translation files to an output directory,
computes the sentence values before and after translation, checks
whether the translation commutes with the sentence reduction, and
prints the induced zero-distance dictionary.

Usage: python3 scripts/syntactic_simplification.py [outdir]
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from discotrans import io
from discotrans.demo import collapse_number_translation, wardrobe_lexicon
from discotrans.dictionary import DictionaryQuery, build_dictionary
from discotrans.grammar import Reduction, parse_type
from discotrans.lexicon import Phrase, phrase_meaning
from discotrans.semantics import normalize_sentence
from discotrans.translation import check_naturality, translate_lexicon


def main() -> int:
    outdir = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("demo_files")
    outdir.mkdir(parents=True, exist_ok=True)

    lex = wardrobe_lexicon()
    t = collapse_number_translation()
    pushed = translate_lexicon(t, lex)

    io.save_doc(io.model_to_doc(lex.model), outdir / "number-aware.model.json")
    io.save_doc(io.model_to_doc(pushed.model), outdir / "number-blind.model.json")
    io.save_doc(io.lexicon_to_doc(lex), outdir / "number-aware.lex.json")
    io.save_doc(io.lexicon_to_doc(pushed), outdir / "number-blind.lex.json")
    io.save_doc(io.translation_to_doc(t), outdir / "collapse.translation.json")
    print(f"wrote files to {outdir}/")

    s = parse_type("s")
    print("\nsentence values (0 = unsurprising, nonzero = surprising):")
    for text in ("Rosie wears boots", "Rosie wears a_boot"):
        phrase = Phrase.parse(text)
        raw = float(phrase_meaning(lex, phrase, s).flat[0])
        norm = float(normalize_sentence(phrase_meaning(lex, phrase, s)).flat[0])
        after = float(phrase_meaning(pushed, phrase, s).flat[0])
        print(f"  {text:22s} before: {raw:+g} (normalized {norm:g})   after: {after:+g}")
    print("  the quantity distinction is lost in the number-blind model.")

    sentence_type = parse_type("n_s n_s^r s n_p^l n_p")
    reduction = Reduction(sentence_type, [(0, 1), (3, 4)])
    report = check_naturality(t, reduction)
    print(
        f"\nnaturality of the collapse on the sentence reduction: "
        f"max residual {report.max_residual:g} over {report.basis_size} basis vectors "
        f"({'commutes' if report.passed else 'does not commute'})"
    )
    print("  the projection is not orthogonal, so a nonzero residual is expected.")

    entries = build_dictionary(lex, pushed, t, DictionaryQuery(threshold=0.0))
    print(f"\nzero-distance word dictionary ({len(entries)} entries):")
    print(io.dictionary_to_rows(entries))

    query = DictionaryQuery(
        max_source_len=3,
        max_target_len=3,
        target_type_filter=s,
        threshold=0.0,
        max_pairs=2_000_000,
    )
    sentences = build_dictionary(lex, pushed, t, query)
    pairs = sorted(
        {
            (str(e.source_phrase), str(e.target_phrase))
            for e in sentences
            if len(e.source_phrase.words) == 3 and len(e.target_phrase.words) == 3
        }
    )
    print(f"\nsentence pairs matching at distance 0 ({len(pairs)}):")
    for source, target in pairs:
        print(f"  {source}  ~  {target}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
