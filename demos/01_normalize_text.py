"""Tour of the text normalization rules, one capability at a time.

Run:  python demos/01_normalize_text.py
"""

from etnorm import default_config, spell_letters, verbalize

config = default_config()


def show(title, sentences):
    print(f"\n== {title} ==")
    for sentence in sentences:
        print(f"  {sentence!r}")
        print(f"   -> {verbalize(sentence, config)!r}")


show("Long uppercase words are titles, not abbreviations", [
    "Näitus PARIIS avati eile kesklinnas.",
    "Lavastus KALEVIPOEG jõuab lavale sügisel.",
])

show("Acronyms flagged 'word' in the dictionary are read as words, others spelled", [
    "Ta töötab NATO peakorteris.",
    "Ta saatis oma CV tööandjale.",
])

show("Letter sequences that look Roman are not always Roman", [
    "DVD mängija on katki.",           # a dictionary entry flagged spellout
    "MM toimub järgmisel aastal.",     # a dictionary entry flagged spellout
    "XX sajand tõi suured muutused.",  # real ordinal: century context
    "Karl XII valitses Rootsit.",      # real ordinal: name context
    "XIX-XX sajand oli muutuste aeg.", # a Roman range, licensed as a whole
])

show("Case endings survive acronym spell-out", [
    "MTÜle anti toetust.",
    "EAS-i toetus aitas ettevõtet.",
])

show("Ambiguous abbreviations follow sentence context", [
    "Hinnale lisandub km, kokku tuleb sada eurot.",  # käibemaks
    "Ta sõitis kaks km jalgrattaga.",                # kilomeetrit
])

show("Lowercase consonant clusters are spelled", [
    "Perekonna liigid spp vajavad kaitset.",
])

show("Numbers: cardinals, decimals, dates, ranges, ratios", [
    "Ta ostis 21 õuna turult.",
    "Pilet maksab 3,14 eurot.",
    "Üritus toimus 11/12/2020 õhtul.",   # never merged into one number
    "Kohtume 2-3 sõbraga.",              # hyphen range -> kuni
    "Pood on avatud 10:30-11:00.",       # a range of times reads the same
    "Võit tuli seisuga 6:2 koju.",       # ratio -> koolon
])

show("Long digit sequences are read digit by digit", [
    "Helista numbril 5123456 kohe.",
    "Helista +372 555 0101 igal ajal.",
])

show("Mixed-case names and web addresses", [
    "eCoop avas uue poe.",
    "DigiDoc4 abil saab allkirjastada.",
    "Vaata lehte www.neurokone.ee kohe.",
])

show("Out-of-alphabet diacritics fold to base letters", [
    "Restoran café avati kesklinnas.",
    "Žürii hindas šõud kõrgelt.",  # Estonian letters stay protected
])

print("\n== Spelling helper ==")
for token, suffix in (("MTÜ", None), ("MTÜ", "le"), ("EAS", "i")):
    print(f"  spell_letters({token!r}, suffix={suffix!r}) ->",
          spell_letters(token, config.letter_names, suffix))
