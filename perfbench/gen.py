#!/usr/bin/env python3
"""Seeded input generator for the xqa benchmark.

Writes the XML documents a workload loads, and a ledger of every value it
emitted, into one directory:

    python3 perfbench/gen.py --workload paper_groupby --seed 1 --out DIR

The engine only ever sees the XML. The benchmark harness reads the ledger
and computes its reference answers from it with plain code of its own, so
the references do not depend on the engine, and no change to the
repository's own workload generators (src/workload/) can change the inputs.

Ledger format (ledger.tsv, tab separated, one record per line):

    P  <key>  <value>                         run parameter
    D  <collection>  <uri>  <file>            document; records follow
    L  <shipinstruct>  <shipmode>  <price>  <quantity>   purchase-order lineitem
    B  <publisher|->  <year>  <price>  <discount|->      book
    S  <year>  <region>  <state>  <product>  <quantity>  <price>   sale
    V  <variant>  <new_uri>  <new_file>  <replace_uri>  <replace_file>  <remove_uri>
                                              one ingest round's write plan

A document listed with collection "-" is not loaded at set-up; it is the
body of a later write (ingest_mixed).
"""

import argparse
import os
import random
import sys

# Section 6 of the paper: TPC-H-like purchase orders, ~4 lineitems per order,
# grouping children of fixed cardinality (4 ship instructions x 7 ship modes).
SHIP_INSTRUCT = ["COLLECT COD", "DELIVER IN PERSON", "NONE", "TAKE BACK RETURN"]
SHIP_MODE = ["AIR", "FOB", "MAIL", "RAIL", "REG AIR", "SHIP", "TRUCK"]
CUSTOMERS = ["Acme Corp", "Globex", "Initech", "Umbrella", "Stark Industries",
             "Wayne Enterprises", "Hooli", "Vandelay Industries"]
CITIES = ["San Jose", "Seattle", "Austin", "Boston", "Denver", "Atlanta"]
COMMENTS = [
    "expedite per customer request and confirm receipt by fax",
    "fragile goods, handle with care during transfer",
    "standard handling, no special instructions apply",
    "priority account, notify sales representative on delay",
]

# Section 2 / Section 5 shapes: books (Q1) and retail sales (Q3).
PUBLISHERS = ["Addison-Wesley", "Morgan Kaufmann", "Prentice Hall", "Springer",
              "Pearson", "MIT Press", "Wiley", "Elsevier"]
AUTHORS = ["Jim Gray", "Andreas Reuter", "Jim Melton", "Michael Stonebraker",
           "Jennifer Widom", "Hector Garcia-Molina", "Don Chamberlin",
           "Serge Abiteboul", "Dan Suciu", "Peter Buneman"]
TITLE_WORDS = ["Transaction", "Processing", "Database", "Systems", "Query",
               "Languages", "XML", "Principles", "Distributed", "Analytics"]
REGIONS = [("West", ["CA", "OR", "WA", "NV"]),
           ("East", ["NY", "MA", "NJ", "CT"]),
           ("South", ["TX", "FL", "GA"]),
           ("Midwest", ["IL", "OH", "MI"])]
PRODUCTS = ["Green Tea", "Black Tea", "Oolong", "White Tea", "Chai", "Matcha",
            "Earl Grey", "Rooibos", "Jasmine", "Mint Tea", "Pu-erh", "Darjeeling"]

# Sizes per workload. Fixed here so that every seed yields the same amount of
# work; only the values change with the seed.
SIZES = {
    "paper_groupby": {"orders": 2000},
    "collection_olap": {"docs": 160, "records": 25},
    "ingest_mixed": {"docs": 80, "records": 25, "variants": 16},
}


def money(cents):
    return "%d.%02d" % (cents // 100, cents % 100)


class Ledger:
    def __init__(self):
        self.lines = []

    def add(self, *fields):
        self.lines.append("\t".join(str(f) for f in fields))

    def write(self, path):
        with open(path, "w", encoding="utf-8") as out:
            out.write("\n".join(self.lines))
            out.write("\n")


def write_text(path, text):
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as out:
        out.write(text)


def gen_orders(rng, ledger, num_orders):
    parts = ["<orders>\n"]
    for i in range(num_orders):
        parts.append("  <order>\n")
        parts.append("    <orderkey>O-%d</orderkey>\n" % (i + 1))
        parts.append("    <orderstatus>%s</orderstatus>\n"
                     % ("F" if rng.random() < 0.3 else "O"))
        parts.append("    <orderdate>199%d-0%d-0%d</orderdate>\n"
                     % (rng.randint(2, 8), rng.randint(1, 9), rng.randint(1, 9)))
        parts.append("    <orderpriority>%d-PRIORITY</orderpriority>\n"
                     % rng.randint(1, 5))
        parts.append("    <customer>\n      <name>%s</name>\n"
                     "      <custkey>C-%d</custkey>\n      <address>\n"
                     "        <street>%d Market St</street>\n"
                     "        <city>%s</city>\n        <zip>9%d0</zip>\n"
                     "      </address>\n      <phone>408-555-0%d</phone>\n"
                     "    </customer>\n"
                     % (rng.choice(CUSTOMERS), rng.randint(1, 5000),
                        rng.randint(1, 9999), rng.choice(CITIES),
                        rng.randint(1000, 9999), rng.randint(100, 999)))
        parts.append("    <clerk>Clerk#%d</clerk>\n" % rng.randint(1, 1000))
        for line in range(1, rng.randint(1, 7) + 1):
            quantity = rng.randint(1, 50)
            price = money(rng.randint(100, 99999))
            instruct = rng.choice(SHIP_INSTRUCT)
            mode = rng.choice(SHIP_MODE)
            ledger.add("L", instruct, mode, price, quantity)
            parts.append(
                "    <lineitem>\n"
                "      <linenumber>%d</linenumber>\n"
                "      <partkey>P-%d</partkey>\n"
                "      <suppkey>S-%d</suppkey>\n"
                "      <quantity>%d</quantity>\n"
                "      <extendedprice>%s</extendedprice>\n"
                "      <discount>0.0%d</discount>\n"
                "      <tax>0.0%d</tax>\n"
                "      <returnflag>%s</returnflag>\n"
                "      <linestatus>%s</linestatus>\n"
                "      <shipdate>199%d-0%d-1%d</shipdate>\n"
                "      <commitdate>199%d-0%d-2%d</commitdate>\n"
                "      <receiptdate>199%d-0%d-0%d</receiptdate>\n"
                "      <shipinstruct>%s</shipinstruct>\n"
                "      <shipmode>%s</shipmode>\n"
                "      <comment>%s</comment>\n"
                "    </lineitem>\n"
                % (line, rng.randint(1, 20000), rng.randint(1, 1000), quantity,
                   price, rng.randint(0, 9), rng.randint(0, 8),
                   rng.choice("NR"), rng.choice("OF"),
                   rng.randint(2, 8), rng.randint(1, 9), rng.randint(0, 9),
                   rng.randint(2, 8), rng.randint(1, 9), rng.randint(0, 8),
                   rng.randint(2, 8), rng.randint(1, 9), rng.randint(1, 9),
                   instruct, mode, rng.choice(COMMENTS)))
        parts.append("    <totalprice>%d.00</totalprice>\n"
                     % rng.randint(100, 500000))
        parts.append("    <comment>%s</comment>\n  </order>\n"
                     % rng.choice(COMMENTS))
    parts.append("</orders>\n")
    return "".join(parts)


def gen_books(rng, ledger, count):
    parts = ["<bib>\n"]
    for i in range(count):
        parts.append("  <book>\n    <title>%s %s %d</title>\n"
                     % (rng.choice(TITLE_WORDS), rng.choice(TITLE_WORDS), i))
        # At most one author: a repeated scalar child makes the collection
        # unshreddable (a documented refusal), and Q1 is to measure the
        # shredded scan.
        for _ in range(rng.randint(0, 1)):
            parts.append("    <author>%s</author>\n" % rng.choice(AUTHORS))
        publisher = "-"
        if rng.random() >= 0.1:
            publisher = rng.choice(PUBLISHERS)
            parts.append("    <publisher>%s</publisher>\n" % publisher)
        year = rng.randint(1990, 2004)
        price_cents = rng.randint(1000, 15000)
        parts.append("    <year>%d</year>\n    <price>%s</price>\n"
                     % (year, money(price_cents)))
        discount = "-"
        if rng.random() < 0.5:
            discount = money(rng.randint(100, price_cents // 2))
            parts.append("    <discount>%s</discount>\n" % discount)
        parts.append("  </book>\n")
        ledger.add("B", publisher, year, money(price_cents), discount)
    parts.append("</bib>\n")
    return "".join(parts)


def gen_sales(rng, ledger, count):
    parts = ["<sales>\n"]
    for _ in range(count):
        region, states = rng.choice(REGIONS)
        state = rng.choice(states)
        year = rng.randint(2002, 2004)
        timestamp = "%04d-%02d-%02dT%02d:%02d:%02d" % (
            year, rng.randint(1, 12), rng.randint(1, 28), rng.randint(0, 23),
            rng.randint(0, 59), rng.randint(0, 59))
        product = rng.choice(PRODUCTS)
        quantity = rng.randint(1, 50)
        price = money(rng.randint(199, 2999))
        parts.append("  <sale>\n    <timestamp>%s</timestamp>\n"
                     "    <product>%s</product>\n    <state>%s</state>\n"
                     "    <region>%s</region>\n    <quantity>%d</quantity>\n"
                     "    <price>%s</price>\n  </sale>\n"
                     % (timestamp, product, state, region, quantity, price))
        ledger.add("S", year, region, state, product, quantity, price)
    parts.append("</sales>\n")
    return "".join(parts)


def gen_document(out_dir, ledger, collection, uri, body):
    path = os.path.join("docs", uri)
    ledger.add("D", collection, uri, path)
    write_text(os.path.join(out_dir, path), body(ledger))


def generate(workload, seed, out_dir):
    rng = random.Random("xqa-perfbench/%s/%d" % (workload, seed))
    ledger = Ledger()
    sizes = SIZES[workload]
    ledger.add("P", "seed", seed)
    if workload == "paper_groupby":
        ledger.add("D", "-", "orders.xml", "orders.xml")
        write_text(os.path.join(out_dir, "orders.xml"),
                   gen_orders(rng, ledger, sizes["orders"]))
    else:
        docs, records = sizes["docs"], sizes["records"]
        for d in range(docs):
            gen_document(out_dir, ledger, "books", "books-%05d.xml" % d,
                         lambda lg: gen_books(rng, lg, records))
        for d in range(docs):
            gen_document(out_dir, ledger, "sales", "sales-%05d.xml" % d,
                         lambda lg: gen_sales(rng, lg, records))
        # First literal of the ad-hoc class's sequence.
        ledger.add("P", "adhoc_offset", rng.randint(0, 1 << 20))
    if workload == "ingest_mixed":
        # One write plan per round variant: a new document, a replacement
        # body for one existing document, and a document to remove. Each
        # round restores what it changed, so every round starts from the
        # set-up corpus and the reference answers repeat round after round.
        for v in range(sizes["variants"]):
            new_uri = "sales-new-%02d.xml" % v
            gen_document(out_dir, ledger, "-", new_uri,
                         lambda lg: gen_sales(rng, lg, records))
            replace_uri = "sales-%05d.xml" % rng.randrange(docs)
            replace_file = "sales-var-%02d.xml" % v
            gen_document(out_dir, ledger, "-", replace_file,
                         lambda lg: gen_sales(rng, lg, records + 5))
            remove_uri = replace_uri
            while remove_uri == replace_uri:
                remove_uri = "sales-%05d.xml" % rng.randrange(docs)
            ledger.add("V", v, new_uri, os.path.join("docs", new_uri),
                       replace_uri, os.path.join("docs", replace_file),
                       remove_uri)
    ledger.write(os.path.join(out_dir, "ledger.tsv"))


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(SIZES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    os.makedirs(args.out, exist_ok=True)
    generate(args.workload, args.seed, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
