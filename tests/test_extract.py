"""Multi-format extraction (M1/S2) — mirrors the reference's
TestSearchByFirstWord.java:29-70: the same Lorem text uploaded as
txt/xml/json/pdf/docx must be searchable by its first word ("Lorem"); we
additionally check the last word ("versions") to pin full-text extraction."""

import io
import os
import zipfile
import zlib

import pyarrow as pa
import pytest

from lucene_plugin_ray.stages.extract import AutoExtract, sniff_format

LOREM = (
    "Lorem Ipsum is simply dummy text of the printing and typesetting "
    "industry. It was popularised in the 1960s with the release of Letraset "
    "sheets containing Lorem Ipsum passages, and more recently with desktop "
    "publishing software like Aldus PageMaker including versions"
)


def _make_docx(text: str) -> bytes:
    buf = io.BytesIO()
    body = "".join(
        f"<w:p><w:r><w:t>{line}</w:t></w:r></w:p>" for line in text.split(". ")
    )
    doc = (
        '<?xml version="1.0"?><w:document xmlns:w="http://schemas.openxml'
        f'formats.org/wordprocessingml/2006/main"><w:body>{body}</w:body>'
        "</w:document>"
    )
    with zipfile.ZipFile(buf, "w") as z:
        z.writestr("[Content_Types].xml", "<Types/>")
        z.writestr("word/document.xml", doc)
    return buf.getvalue()


def _make_pdf(text: str, compress: bool) -> bytes:
    # one content stream of (word) Tj ops — the common text-PDF shape
    ops = " ".join(f"({w}) Tj" for w in text.split())
    content = f"BT /F1 12 Tf {ops} ET".encode()
    filt = b""
    if compress:
        content = zlib.compress(content)
        filt = b"/Filter /FlateDecode "
    return (
        b"%PDF-1.3\n1 0 obj\n<< " + filt + b"/Length "
        + str(len(content)).encode()
        + b" >>\nstream\n" + content + b"\nendstream\nendobj\ntrailer\n<<>>\n%%EOF"
    )


FIXTURES = {
    "txt": LOREM.encode(),
    "xml": (
        "<xml>" + "".join(f"<line>{l}</line>" for l in LOREM.split(". ")) + "</xml>"
    ).encode(),
    "json": ('{"data": "' + LOREM + '"}').encode(),
    "docx": _make_docx(LOREM),
    "pdf": _make_pdf(LOREM, compress=True),
    "pdf_raw": _make_pdf(LOREM, compress=False),
}


def test_sniff_format():
    assert sniff_format(FIXTURES["txt"]) == "txt"
    assert sniff_format(FIXTURES["xml"]) == "xml"
    assert sniff_format(FIXTURES["json"]) == "json"
    assert sniff_format(FIXTURES["docx"]) == "docx"
    assert sniff_format(FIXTURES["pdf"]) == "pdf"
    assert sniff_format(b"<html><body>x</body></html>") == "html"


@pytest.mark.parametrize("fmt", list(FIXTURES))
def test_first_and_last_word_every_format(fmt):
    ex = AutoExtract()
    text, detected = ex.extract_one(FIXTURES[fmt])
    assert text.split()[0] == "Lorem", (fmt, text[:80])
    assert "versions" in text.split(), (fmt, text[-80:])


def test_extract_search_pipeline(ray_session, tmp_path):
    """Raw 5-format payloads → AutoExtract map_batches → index build →
    first-word search finds exactly one hit per format (the reference test's
    assertion shape)."""
    import ray.data

    from lucene_plugin_ray.config import IndexConfig
    from lucene_plugin_ray.pipelines.build import build_index
    from lucene_plugin_ray.pipelines.query import SearchEngine

    names = ["txt", "xml", "json", "docx", "pdf"]
    corpus = pa.table(
        {
            "url": [f"bfs:///tmp/test-00.{n}" for n in names],
            "warc_ts": pa.array([1] * len(names), type=pa.int64()),
            "raw": pa.array([FIXTURES[n] for n in names], type=pa.binary()),
        }
    )
    ds = ray.data.from_arrow(corpus).map_batches(
        AutoExtract, batch_format="pyarrow", batch_size=2, concurrency=1
    )
    root = str(tmp_path / "idx")
    cfg = IndexConfig(index_root=root, num_partitions=2)
    build_index(ds, cfg)
    eng = SearchEngine(root, cfg=cfg)
    hits = eng.search("lorem")
    assert hits.num_rows == len(names)  # every format indexed the text
    hits2 = eng.search("+lorem +versions")
    assert hits2.num_rows == len(names)


@pytest.mark.skipif(
    not os.path.isdir("/root/reference/service/src/test/resources"),
    reason="reference fixtures unavailable",
)
@pytest.mark.parametrize("name", ["test-00.txt", "test-00.xml", "test-00.json",
                                  "test-00.pdf", "test-00.docx"])
def test_reference_fixture_parity(name):
    """The reference's own five upload fixtures: first word must be Lorem and
    the final token 'versions' must be extracted (TestSearchByFirstWord)."""
    with open(f"/root/reference/service/src/test/resources/{name}", "rb") as f:
        raw = f.read()
    text, fmt = AutoExtract().extract_one(raw)
    assert text.split()[0] == "Lorem", (name, fmt, text[:80])
    assert "versions" in text, (name, fmt, text[-120:])


@pytest.mark.parametrize("name", ["test-00.txt", "test-00.xml", "test-00.json",
                                  "test-00.pdf", "test-00.docx"])
def test_local_fixture_parity(name, tmp_path):
    """The properties of test_reference_fixture_parity on locally generated
    upload files (no reference checkout needed): the file is written and
    read back as bytes, its format is sniffed from content, the first word
    is Lorem and the last token is 'versions'."""
    ext = name.rsplit(".", 1)[1]
    path = tmp_path / name
    path.write_bytes(FIXTURES[ext])
    text, fmt = AutoExtract().extract_one(path.read_bytes())
    assert fmt == ext, (name, fmt)
    assert text.split()[0] == "Lorem", (name, fmt, text[:80])
    assert text.split()[-1] == "versions", (name, fmt, text[-120:])


# ---- round-4 formats (VERDICT r03 item 5): rtf / odt / md / csv ----------

def _make_rtf(text: str) -> bytes:
    body = "\\par ".join(text.split(". "))
    return (
        r"{\rtf1\ansi\deff0{\fonttbl{\f0\froman Times New Roman;}}"
        r"{\colortbl;\red0\green0\blue0;}{\info{\author nobody}}"
        r"{\*\generator fake 1.0;}\uc1\pard\f0\fs24 " + body + r"\par}"
    ).encode()


def _make_odt(text: str) -> bytes:
    buf = io.BytesIO()
    body = "".join(
        f"<text:p>{line}</text:p>" for line in text.split(". ")
    )
    content = (
        '<?xml version="1.0"?><office:document-content '
        'xmlns:office="urn:oasis:names:tc:opendocument:xmlns:office:1.0" '
        'xmlns:text="urn:oasis:names:tc:opendocument:xmlns:text:1.0">'
        f"<office:body><office:text>{body}</office:text></office:body>"
        "</office:document-content>"
    )
    with zipfile.ZipFile(buf, "w", zipfile.ZIP_STORED) as z:
        z.writestr("mimetype", "application/vnd.oasis.opendocument.text")
        z.writestr("content.xml", content)
    return buf.getvalue()


_MD_DOC = (
    "# Lorem Ipsum\n\nIs simply *dummy* text of the **printing** industry.\n\n"
    "- It was [popularised](http://example.com/x) in the 1960s\n"
    "- with `Letraset` sheets\n\n```\ncode block dropped\n```\n\n"
    "![desktop publishing](img.png) software like Aldus PageMaker "
    "including versions\n"
)

_CSV_DOC = (
    "Lorem,Ipsum,dummy\nprinting,typesetting,industry\n"
    "PageMaker,including,versions\n"
)

ROUND4_FIXTURES = {
    "rtf": _make_rtf(LOREM),
    "odt": _make_odt(LOREM),
    "md": _MD_DOC.encode(),
    "csv": _CSV_DOC.encode(),
}


def test_sniff_round4_formats():
    for fmt, raw in ROUND4_FIXTURES.items():
        assert sniff_format(raw) == fmt, fmt
    # odt shares the zip magic with docx — both directions must hold
    assert sniff_format(FIXTURES["docx"]) == "docx"
    # plain prose stays txt (markdown/csv heuristics must not misfire)
    assert sniff_format(LOREM.encode()) == "txt"
    assert sniff_format(b"no commas here\njust plain text lines\n") == "txt"


@pytest.mark.parametrize("fmt", list(ROUND4_FIXTURES))
def test_round4_first_and_last_word(fmt):
    text, detected = AutoExtract().extract_one(ROUND4_FIXTURES[fmt])
    assert detected == fmt
    assert text.split()[0] == "Lorem", (fmt, text[:80])
    assert "versions" in text.split(), (fmt, text[-80:])


def test_rtf_escapes_and_destinations():
    raw = (
        rb"{\rtf1\ansi{\fonttbl{\f0 Skip Me;}}\uc1\pard caf\'e9 "
        rb"\u8364? dash\emdash end{\*\unknowndest hidden}\par}"
    )
    text, fmt = AutoExtract().extract_one(raw)
    assert fmt == "rtf"
    assert "café" in text and "€" in text and "—" in text
    assert "Skip" not in text and "hidden" not in text


def test_markdown_falls_back_to_txt_on_plain_prose():
    text, fmt = AutoExtract().extract_one(LOREM.encode())
    assert fmt == "txt" and text == LOREM


def test_csv_quoting():
    raw = b'a,"b, with comma",c\nd,"e",versions\n'
    text, fmt = AutoExtract().extract_one(raw)
    assert fmt == "csv"
    assert "b, with comma" in text and "versions" in text.split()


def _make_epub(text: str) -> bytes:
    buf = io.BytesIO()
    body = "".join(f"<p>{line}</p>" for line in text.split(". "))
    with zipfile.ZipFile(buf, "w", zipfile.ZIP_STORED) as z:
        z.writestr("mimetype", "application/epub+zip")
        z.writestr("META-INF/container.xml", "<container/>")
        z.writestr(
            "OEBPS/chapter1.xhtml",
            f"<html><head><title>skip</title></head><body>{body}</body></html>",
        )
    return buf.getvalue()


def test_epub_round_trip():
    raw = _make_epub(LOREM)
    assert sniff_format(raw) == "epub"
    text, fmt = AutoExtract().extract_one(raw)
    assert fmt == "epub"
    assert text.split()[0] == "Lorem" and "versions" in text.split()
    # zip magic disambiguation holds all three ways
    assert sniff_format(FIXTURES["docx"]) == "docx"
    assert sniff_format(ROUND4_FIXTURES["odt"]) == "odt"


def test_csv_heuristic_spares_short_prose():
    """Round-4 review finding: two prose lines with one comma each must
    stay txt (identity), not be comma-stripped by the csv extractor."""
    raw = b"Hello, world\nGoodbye, moon"
    text, fmt = AutoExtract().extract_one(raw)
    assert fmt == "txt" and text == raw.decode()


# ---- round-5 formats (VERDICT r04 item 5): xlsx / pptx / ods / odp -------

def _make_xlsx(text: str) -> bytes:
    """Shared-string cells + one numeric + one inline string — the three
    cell encodings the extractor must resolve."""
    words = text.split()
    buf = io.BytesIO()
    sst = "".join(f"<si><t>{w}</t></si>" for w in words[:-1])
    cells = "".join(
        f'<c r="A{i}" t="s"><v>{i}</v></c>' for i in range(len(words) - 1)
    )
    sheet = (
        '<?xml version="1.0"?><worksheet><sheetData>'
        f"<row r=\"1\">{cells}</row>"
        '<row r="2"><c r="A2"><v>42</v></c>'
        f'<c r="B2" t="inlineStr"><is><t>{words[-1]}</t></is></c></row>'
        "</sheetData></worksheet>"
    )
    with zipfile.ZipFile(buf, "w") as z:
        z.writestr("[Content_Types].xml", "<Types/>")
        z.writestr("xl/workbook.xml", "<workbook/>")
        z.writestr(
            "xl/sharedStrings.xml", f"<sst>{sst}</sst>"
        )
        z.writestr("xl/worksheets/sheet1.xml", sheet)
    return buf.getvalue()


def _make_pptx(text: str) -> bytes:
    """Slides written out of order in the zip — extraction must sort
    numerically (slide2 before slide10)."""
    lines = text.split(". ")
    buf = io.BytesIO()

    def slide(body: str) -> str:
        runs = "".join(f"<a:r><a:t>{w}</a:t></a:r>" for w in body.split())
        return f'<?xml version="1.0"?><p:sld><p:txBody>{runs}</p:txBody></p:sld>'

    with zipfile.ZipFile(buf, "w") as z:
        z.writestr("[Content_Types].xml", "<Types/>")
        z.writestr("ppt/presentation.xml", "<presentation/>")
        z.writestr("ppt/slides/slide10.xml", slide(lines[-1]))
        z.writestr("ppt/slides/slide1.xml", slide(lines[0]))
        z.writestr("ppt/slides/slide2.xml", slide(". ".join(lines[1:-1])))
        z.writestr("ppt/notesSlides/notesSlide1.xml", slide("SKIPNOTE"))
    return buf.getvalue()


def _make_ods(text: str) -> bytes:
    words = text.split()
    rows = "".join(
        "<table:table-row>"
        + "".join(
            f"<table:table-cell><text:p>{w}</text:p></table:table-cell>"
            for w in words[i : i + 8]
        )
        + "</table:table-row>"
        for i in range(0, len(words), 8)
    )
    content = (
        '<?xml version="1.0"?><office:document-content>'
        f"<office:body><office:spreadsheet><table:table>{rows}"
        "</table:table></office:spreadsheet></office:body>"
        "</office:document-content>"
    )
    buf = io.BytesIO()
    with zipfile.ZipFile(buf, "w", zipfile.ZIP_STORED) as z:
        z.writestr("mimetype", "application/vnd.oasis.opendocument.spreadsheet")
        z.writestr("content.xml", content)
    return buf.getvalue()


def _make_odp(text: str) -> bytes:
    body = "".join(
        f"<draw:frame><draw:text-box><text:p>{line}</text:p>"
        "</draw:text-box></draw:frame>"
        for line in text.split(". ")
    )
    content = (
        '<?xml version="1.0"?><office:document-content>'
        f"<office:body><office:presentation><draw:page>{body}</draw:page>"
        "</office:presentation></office:body></office:document-content>"
    )
    buf = io.BytesIO()
    with zipfile.ZipFile(buf, "w", zipfile.ZIP_STORED) as z:
        z.writestr("mimetype", "application/vnd.oasis.opendocument.presentation")
        z.writestr("content.xml", content)
    return buf.getvalue()


ROUND5_FIXTURES = {
    "xlsx": _make_xlsx(LOREM),
    "pptx": _make_pptx(LOREM),
    "ods": _make_ods(LOREM),
    "odp": _make_odp(LOREM),
}


def test_sniff_round5_formats():
    for fmt, raw in ROUND5_FIXTURES.items():
        assert sniff_format(raw) == fmt, fmt
    # the widened zip probe must not disturb the earlier container formats
    assert sniff_format(FIXTURES["docx"]) == "docx"
    assert sniff_format(ROUND4_FIXTURES["odt"]) == "odt"
    assert sniff_format(_make_epub(LOREM)) == "epub"


@pytest.mark.parametrize("fmt", list(ROUND5_FIXTURES))
def test_round5_first_and_last_word(fmt):
    text, detected = AutoExtract().extract_one(ROUND5_FIXTURES[fmt])
    assert detected == fmt
    assert text.split()[0] == "Lorem", (fmt, text[:80])
    assert "versions" in text.split(), (fmt, text[-80:])


def test_xlsx_shared_strings_resolved():
    """t="s" cells must emit the shared STRING, never its index; numeric
    cells emit the value verbatim."""
    text, fmt = AutoExtract().extract_one(ROUND5_FIXTURES["xlsx"])
    assert fmt == "xlsx"
    words = text.split()
    assert "42" in words          # the numeric cell
    assert "0" not in words[:5]   # no raw shared-string indices
    assert words[0] == "Lorem"


def test_pptx_slide_order_and_notes_skipped():
    text, fmt = AutoExtract().extract_one(ROUND5_FIXTURES["pptx"])
    assert fmt == "pptx"
    assert "SKIPNOTE" not in text          # notes are metadata
    # slide10 content (the last sentence fragment) comes AFTER slide2's
    assert text.split()[-1] == "versions"


def test_xlsx_self_closing_cells():
    """Round-5 review finding: blank styled cells ('<c r="A1" s="1"/>')
    must not swallow the following cell — the t="s" attribute of the NEXT
    cell would land in the inner group and the shared-string INDEX would
    leak into the text."""
    buf = io.BytesIO()
    sheet = (
        '<?xml version="1.0"?><worksheet><sheetData>'
        '<row r="1"><c r="A1" s="1"/>'
        '<c r="B1" t="s"><v>0</v></c></row>'
        "</sheetData></worksheet>"
    )
    with zipfile.ZipFile(buf, "w") as z:
        z.writestr("[Content_Types].xml", "<Types/>")
        z.writestr("xl/workbook.xml", "<workbook/>")
        z.writestr("xl/sharedStrings.xml", "<sst><si><t>hello</t></si></sst>")
        z.writestr("xl/worksheets/sheet1.xml", sheet)
    text, fmt = AutoExtract().extract_one(buf.getvalue())
    assert fmt == "xlsx"
    assert text == "hello"  # the string, never the raw index '0'


def test_sniff_embedded_zip_not_misclassified():
    """Round-5 review finding: a pptx carrying an embedded stored xlsx
    contains the inner zip's 'xl/workbook.xml' bytes verbatim — the
    sniffer must classify by TOP-LEVEL entry names, not byte scans."""
    inner = _make_xlsx("inner sheet words")
    outer = io.BytesIO()
    with zipfile.ZipFile(outer, "w") as z:
        z.writestr("[Content_Types].xml", "<Types/>")
        z.writestr("ppt/presentation.xml", "<presentation/>")
        z.writestr(
            "ppt/slides/slide1.xml",
            '<?xml version="1.0"?><p:sld><p:txBody>'
            "<a:r><a:t>Lorem outer deck versions</a:t></a:r>"
            "</p:txBody></p:sld>",
        )
        # store the whole inner workbook as ONE entry, uncompressed —
        # its local headers (incl. 'xl/workbook.xml') ride verbatim
        z.writestr(
            zipfile.ZipInfo("ppt/embeddings/chart1.xlsx"), inner
        )
    raw = outer.getvalue()
    assert b"xl/workbook.xml" in raw  # the bait is really in the bytes
    assert sniff_format(raw) == "pptx"
    text, fmt = AutoExtract().extract_one(raw)
    assert fmt == "pptx" and "outer" in text
